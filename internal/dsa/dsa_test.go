package dsa

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"deepmc/internal/ir"
)

const lockSrc = `
module nvmdirect

type nvm_amutex struct {
	owners: int
	level: int
}

type nvm_lkrec struct {
	state: int
	new_level: int
}

func nvm_add_lock_op(mutex: *nvm_amutex) *nvm_lkrec {
	file "nvm_locks.c"
	%lk = palloc nvm_lkrec @700
	ret %lk
}

func nvm_lock(omutex: *nvm_amutex) {
	file "nvm_locks.c"
	%mutex = or %omutex, 0                    @883
	%lk = call nvm_add_lock_op(%mutex)        @885
	store %lk.state, 1                        @886
	flush %lk.state                           @887
	fence                                     @887
	%o = load %mutex.owners                   @889
	%o2 = sub %o, 1
	store %mutex.owners, %o2                  @889
	flush %mutex.owners                       @890
	fence                                     @890
	%lvl = load %mutex.level                  @892
	store %lk.new_level, %lvl                 @893
	store %lk.state, 2                        @895
	flush %lk.state                           @896
	fence                                     @896
	ret
}

func caller() {
	%m = palloc nvm_amutex @10
	call nvm_lock(%m)      @11
	ret
}
`

func analyzeLock(t *testing.T) *Analysis {
	t.Helper()
	m := ir.MustParse(lockSrc)
	if err := ir.Verify(m); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return Analyze(m, DefaultOptions())
}

func TestPersistentAllocation(t *testing.T) {
	a := analyzeLock(t)
	g := a.Graph("nvm_add_lock_op")
	lk := g.RegCell("lk")
	if !lk.IsPtr() || !lk.Obj.Persistent() {
		t.Fatalf("lk cell = %v, want persistent object", lk)
	}
	if rc := g.RetCell.Norm(); rc.Obj == nil || rc.Obj != lk.Obj.Find() {
		t.Errorf("return cell %v must match lk %v", rc, lk)
	}
}

func TestBottomUpReturnFlows(t *testing.T) {
	a := analyzeLock(t)
	g := a.Graph("nvm_lock")
	lk := g.RegCell("lk")
	if !lk.IsPtr() {
		t.Fatal("lk has no object in nvm_lock")
	}
	if !lk.Obj.Persistent() {
		t.Error("lk must be persistent in the caller after bottom-up")
	}
	if lk.Obj.Find().TypeName != "nvm_lkrec" {
		t.Errorf("lk type = %q, want nvm_lkrec", lk.Obj.Find().TypeName)
	}
}

func TestTopDownPersistence(t *testing.T) {
	a := analyzeLock(t)
	// caller passes a persistent mutex into nvm_lock; top-down must mark
	// nvm_lock's omutex parameter node persistent (Figure 10's third phase).
	g := a.Graph("nvm_lock")
	om := g.RegCell("omutex")
	if !om.IsPtr() || !om.Obj.Persistent() {
		t.Errorf("omutex = %v, want persistent after top-down", om)
	}
	// And transitively in nvm_add_lock_op's parameter.
	g2 := a.Graph("nvm_add_lock_op")
	mu := g2.RegCell("mutex")
	if !mu.IsPtr() || !mu.Obj.Persistent() {
		t.Errorf("nvm_add_lock_op mutex = %v, want persistent", mu)
	}
}

func TestModRefTracking(t *testing.T) {
	a := analyzeLock(t)
	g := a.Graph("nvm_lock")
	lk := g.RegCell("lk")
	mods := lk.Obj.ModFields()
	want := []string{"new_level", "state"}
	if !reflect.DeepEqual(mods, want) {
		t.Errorf("lk mod fields = %v, want %v", mods, want)
	}
	mu := g.RegCell("mutex")
	if !mu.Obj.Find().Ref["level"] {
		t.Error("mutex.level must be marked ref")
	}
	if !mu.Obj.Find().Mod["owners"] {
		t.Error("mutex.owners must be marked mod")
	}
}

func TestAliasQueries(t *testing.T) {
	a := analyzeLock(t)
	g := a.Graph("nvm_lock")
	lk := g.RegCell("lk")
	mu := g.RegCell("mutex")
	lkState := Cell{Obj: lk.Obj, Field: "state"}
	lkLevel := Cell{Obj: lk.Obj, Field: "new_level"}
	if MayAlias(lkState, lkLevel) {
		t.Error("distinct fields of one object must not alias")
	}
	if !MayAlias(lkState, Cell{Obj: lk.Obj}) {
		t.Error("whole object must alias its field")
	}
	if MayAlias(lkState, Cell{Obj: mu.Obj, Field: "state"}) {
		t.Error("cells of distinct objects must not alias")
	}
	if !MustAlias(lkState, lkState) {
		t.Error("identical cells must MustAlias")
	}
	if !SameObject(lkState, lkLevel) {
		t.Error("fields of one object are SameObject")
	}
}

func TestParamArgUnification(t *testing.T) {
	a := analyzeLock(t)
	// The mutex allocated in caller() and the omutex parameter of
	// nvm_lock must be the same node within caller's graph.
	g := a.Graph("caller")
	m := g.RegCell("m")
	if !m.IsPtr() || !m.Obj.Persistent() {
		t.Fatalf("m = %v", m)
	}
	// After inlining, caller's clone of nvm_lock's mutex node carries the
	// mod of owners.
	if !m.Obj.Find().Mod["owners"] {
		t.Error("caller's view of the mutex must include callee's mod of owners")
	}
}

func TestPointerFieldLinking(t *testing.T) {
	src := `
module m

type item struct {
	v: int
}

type holder struct {
	it: *item
}

func link() {
	%h = palloc holder @1
	%i = palloc item   @2
	store %h.it, %i    @3
	%j = load %h.it    @4
	store %j.v, 9      @5
	ret
}
`
	a := Analyze(ir.MustParse(src), DefaultOptions())
	g := a.Graph("link")
	i := g.RegCell("i")
	j := g.RegCell("j")
	if i.Obj.Find() != j.Obj.Find() {
		t.Error("loaded pointer must unify with the stored pointee")
	}
	if !j.Obj.Find().Mod["v"] {
		t.Error("store through loaded pointer must mark pointee mod")
	}
}

func TestPointeeInheritsPersistence(t *testing.T) {
	src := `
module m

type inner struct {
	v: int
}

type outer struct {
	in: *inner
}

func f(p: *outer) {
	%q = load %p.in
	store %q.v, 1
	ret
}

func top() {
	%o = palloc outer
	call f(%o)
	ret
}
`
	a := Analyze(ir.MustParse(src), DefaultOptions())
	g := a.Graph("f")
	q := g.RegCell("q")
	if !q.IsPtr() || !q.Obj.Persistent() {
		t.Errorf("pointee loaded from a persistent object should inherit persistence, got %v", q)
	}
}

func TestFieldInsensitiveMode(t *testing.T) {
	m := ir.MustParse(lockSrc)
	a := Analyze(m, Options{FieldSensitive: false})
	g := a.Graph("nvm_lock")
	lk := g.RegCell("lk")
	// Without field sensitivity all geps land on the whole-object path.
	for _, f := range lk.Obj.ModFields() {
		if f != "" {
			t.Errorf("field-insensitive mode recorded field %q", f)
		}
	}
}

func TestExternalPersistentAlloc(t *testing.T) {
	src := `
module m

func f() {
	%p = call pmemobj_direct()
	store %p, 1
	ret
}
`
	a := Analyze(ir.MustParse(src), Options{
		FieldSensitive:     true,
		PersistentAllocFns: []string{"pmemobj_direct"},
	})
	p := a.Graph("f").RegCell("p")
	if !p.IsPtr() || !p.Obj.Persistent() {
		t.Errorf("annotated external alloc must yield persistent node, got %v", p)
	}
}

func TestCollapseOnConflict(t *testing.T) {
	src := `
module m

type a struct {
	x: int
}

type b struct {
	y: int
}

func f(c) {
	%p = palloc a
	%q = palloc b
	condbr %c, l1, l2
l1:
	%r = or %p, 0
	br out
l2:
	%r = or %q, 0
	br out
out:
	store %r.x, 1
	ret
}
`
	an := Analyze(ir.MustParse(src), DefaultOptions())
	g := an.Graph("f")
	r := g.RegCell("r")
	if !r.IsPtr() {
		t.Fatal("r must be a pointer")
	}
	if !r.Obj.Collapsed() {
		t.Error("merging differently-typed objects must collapse the node")
	}
	// p and q have merged.
	if g.RegCell("p").Obj.Find() != g.RegCell("q").Obj.Find() {
		t.Error("p and q must unify through r")
	}
}

func TestRecursionStaysOpaque(t *testing.T) {
	src := `
module m

type n struct {
	next: *n
}

func walk(p: *n) {
	%q = load %p.next
	%c = eq %q, 0
	condbr %c, stop, go
go:
	call walk(%q)
	ret
stop:
	ret
}
`
	// Must terminate and produce a usable graph.
	a := Analyze(ir.MustParse(src), DefaultOptions())
	g := a.Graph("walk")
	if g.RegCell("p").Obj == nil {
		t.Error("recursive function still needs param cells")
	}
}

// --- property-based tests --------------------------------------------------

// fieldPathGen produces random plausible field paths.
func fieldPathGen(r *rand.Rand) string {
	parts := []string{"a", "b", "c", "[]", "x"}
	n := r.Intn(4)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte('.')
		}
		sb.WriteString(parts[r.Intn(len(parts))])
	}
	return sb.String()
}

func TestFieldsOverlapProperties(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 2000,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			for i := range vals {
				vals[i] = reflect.ValueOf(fieldPathGen(r))
			}
		},
	}
	// Symmetry: overlap(a,b) == overlap(b,a).
	if err := quick.Check(func(a, b string) bool {
		return FieldsOverlap(a, b) == FieldsOverlap(b, a)
	}, cfg); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	// Reflexivity.
	if err := quick.Check(func(a string) bool {
		return FieldsOverlap(a, a)
	}, cfg); err != nil {
		t.Errorf("reflexivity: %v", err)
	}
	// Covers implies overlap.
	if err := quick.Check(func(a, b string) bool {
		if FieldCovers(a, b) {
			return FieldsOverlap(a, b)
		}
		return true
	}, cfg); err != nil {
		t.Errorf("covers⊆overlap: %v", err)
	}
	// Covers is transitive.
	if err := quick.Check(func(a, b, c string) bool {
		if FieldCovers(a, b) && FieldCovers(b, c) {
			return FieldCovers(a, c)
		}
		return true
	}, cfg); err != nil {
		t.Errorf("covers transitivity: %v", err)
	}
}

func TestUnionFindProperties(t *testing.T) {
	// Unifying a chain of nodes in random order always yields one class
	// with merged flags, and Find is idempotent.
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := ir.NewModule("p")
		a := &Analysis{Module: m, Opts: DefaultOptions()}
		g := newGraph(a, &ir.Function{Name: "f"})
		const n = 16
		nodes := make([]*Node, n)
		for i := range nodes {
			var fl Flags
			if i == 7 {
				fl = FlagPersistent
			}
			nodes[i] = g.newNode(fl, "", nil)
		}
		perm := r.Perm(n - 1)
		for _, i := range perm {
			g.unifyNodes(nodes[i], nodes[i+1])
		}
		rep := nodes[0].Find()
		for _, nd := range nodes {
			if nd.Find() != rep {
				return false
			}
			if nd.Find() != nd.Find().Find() {
				return false
			}
		}
		return rep.Flags&FlagPersistent != 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
