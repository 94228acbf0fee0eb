// Package crashsim validates persistency-model violations by exhaustive
// crash-point enumeration, in the spirit of the Yat validator the paper
// compares against (§6): a PIR program is executed once to completion to
// count its steps, then re-executed with a simulated crash after every
// prefix; at each crash point the durable image — what clwb/sfence
// semantics guarantee survives — is handed to a user invariant.
//
// This is how the repository demonstrates that the corpus's
// model-violation bugs are real: the buggy btree split loses its item
// update at some crash point; the fixed version never violates the
// invariant.
//
// The crash-discard rule is contract-parameterized (Options.Contract).
// Under the default x86 clwb/sfence contract a crash discards dirty and
// staged words; any subset of them may also have persisted
// (checkOutcomes).  Under a CXL contract with a persistence domain
// (read, like the static checker, as covering the whole persistent
// heap) stores are durable at store time, so a host/power crash loses
// nothing — but the contract adds a second failure domain: a DEVICE
// failure rolls domain words written since the last global persist
// barrier back to their barrier-committed values.  Each crash point is
// therefore checked against both failure domains' images.
package crashsim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"deepmc/internal/interp"
	"deepmc/internal/pmcontract"
)

// Word is one 8-byte persistent location: object id + byte offset.
type Word struct {
	Obj int
	Off int
}

// Image is the durable view of persistent memory at a crash point.
type Image struct {
	durable map[Word]int64
	objects map[int]*interp.Object
}

// Load returns the durable value of a word (zero if never persisted).
func (im *Image) Load(obj, off int) int64 { return im.durable[Word{Obj: obj, Off: off}] }

// LoadField returns the durable value of obj.field using the object's
// type layout; ok is false if the object or field is unknown.
func (im *Image) LoadField(objID int, field string) (int64, bool) {
	o := im.objects[objID]
	if o == nil || o.Type == nil {
		return 0, false
	}
	off := o.Type.FieldOffset(field)
	if off < 0 {
		return 0, false
	}
	return im.Load(objID, off), true
}

// Objects lists the persistent objects the crashed execution touched, in
// allocation order (ids ascend).  Ids are not contiguous here: volatile
// allocations consume ids too, and only objects reached by a persistent
// write or undo-log registration are recorded — so the listing iterates
// the recorded set rather than probing ids from 1 until the first gap
// (which silently truncated the list).
func (im *Image) Objects() []*interp.Object {
	out := make([]*interp.Object, 0, len(im.objects))
	for _, o := range im.objects {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// undoRec is one undo-log pre-image: the value recovery restores if the
// enclosing transaction never commits.
type undoRec struct {
	w   Word
	val int64
}

// nvmState tracks volatile vs durable word state under clwb/sfence
// semantics (word-granular persistence domain), plus undo-log
// transaction semantics: TX_ADD snapshots pre-images, commit persists
// the logged words, and a crash inside an open transaction is followed
// by recovery rolling the logged words back.
type nvmState struct {
	interp.NopHooks
	current map[Word]int64
	durable map[Word]int64
	dirty   map[Word]bool
	staged  map[Word]bool
	objects map[int]*interp.Object

	txDepth int
	undo    []undoRec
	logged  map[Word]bool

	// contract selects the crash-discard rule; the zero value is x86.
	// With a CXL persistence domain (whole-heap at this layer),
	// in-domain writes go straight to durable and are tracked in
	// domainPending until a barrier commits them; devCommitted holds the
	// barrier-committed value a device failure rolls back to.
	contract      pmcontract.Contract
	domainPending map[Word]bool
	devCommitted  map[Word]int64
}

func newNVMState(c pmcontract.Contract) *nvmState {
	return &nvmState{
		current:       make(map[Word]int64),
		durable:       make(map[Word]int64),
		dirty:         make(map[Word]bool),
		staged:        make(map[Word]bool),
		objects:       make(map[int]*interp.Object),
		logged:        make(map[Word]bool),
		contract:      c,
		domainPending: make(map[Word]bool),
		devCommitted:  make(map[Word]int64),
	}
}

// inDomain reports whether persistent words live in a device
// persistence domain.  The interpreter has no pool address space, so
// (matching the static checker) any non-empty domain covers the whole
// persistent heap.
func (s *nvmState) inDomain() bool { return s.contract.HasDomain() }

// PersistencyContract implements interp.ContractHolder so fault
// decorators (faultinj.Wrap) keep injections legal under the contract.
func (s *nvmState) PersistencyContract() pmcontract.Contract { return s.contract }

// OnTxBegin opens a transaction level.
func (s *nvmState) OnTxBegin(_, _ string, _ int) { s.txDepth++ }

// OnTxAdd records undo pre-images for the logged range.  The pre-image
// is the current content, as PMDK's TX_ADD snapshots it.
func (s *nvmState) OnTxAdd(obj *interp.Object, off, size int, _, _ string, _ int) {
	if !obj.Persistent || s.txDepth == 0 {
		return
	}
	s.objects[obj.ID] = obj
	for g := 0; g < size; g += 8 {
		w := Word{Obj: obj.ID, Off: off + g}
		if s.logged[w] {
			continue
		}
		s.logged[w] = true
		s.undo = append(s.undo, undoRec{w: w, val: s.current[w]})
	}
}

// OnTxEnd commits at the outermost level: logged words persist with
// their current values (PMDK flushes logged ranges at TX_COMMIT) and the
// undo log retires.
func (s *nvmState) OnTxEnd(_, _ string, _ int) {
	if s.txDepth > 0 {
		s.txDepth--
	}
	if s.txDepth != 0 {
		return
	}
	for w := range s.logged {
		s.durable[w] = s.current[w]
		delete(s.dirty, w)
		delete(s.staged, w)
	}
	s.logged = make(map[Word]bool)
	s.undo = nil
	// A transaction commit includes a persist barrier: it also commits
	// buffered domain writes against device failure.
	s.commitDomain()
}

// commitDomain retires the device-side buffer: every pending domain
// word's durable value becomes its barrier-committed value.
func (s *nvmState) commitDomain() {
	for w := range s.domainPending {
		s.devCommitted[w] = s.durable[w]
	}
	s.domainPending = make(map[Word]bool)
}

// OnWrite mirrors a persistent store into the volatile view.  In a
// persistence domain the store is durable at store time — no dirty
// window — but stays device-buffered (domainPending) until a barrier
// commits it against device failure.
func (s *nvmState) OnWrite(obj *interp.Object, off, size int, _, _ string, _ int) {
	if !obj.Persistent {
		return
	}
	s.objects[obj.ID] = obj
	inDom := s.inDomain()
	for g := 0; g < size; g += 8 {
		w := Word{Obj: obj.ID, Off: off + g}
		slot := (off + g) / 8
		if slot < len(obj.Slots) {
			s.current[w] = obj.Slots[slot].I
		}
		if inDom {
			s.durable[w] = s.current[w]
			s.domainPending[w] = true
		} else {
			s.dirty[w] = true
		}
	}
}

// OnEvict implements interp.Evictor: an injected eviction persists the
// range immediately (legal for dirty lines at any time under
// clwb/sfence), bypassing flush/fence staging.  Words logged in an open
// transaction still roll back at recovery — image() applies the undo
// log over whatever the cache persisted.
func (s *nvmState) OnEvict(obj *interp.Object, off, size int, _, _ string, _ int) {
	if !obj.Persistent {
		return
	}
	s.objects[obj.ID] = obj
	for g := 0; g < size; g += 8 {
		w := Word{Obj: obj.ID, Off: off + g}
		slot := (off + g) / 8
		if slot < len(obj.Slots) {
			s.current[w] = obj.Slots[slot].I
		}
		s.durable[w] = s.current[w]
		delete(s.dirty, w)
		delete(s.staged, w)
	}
}

// OnFlush stages dirty words for write-back.  In a persistence domain
// there is nothing to stage — the store was durable at store time.
func (s *nvmState) OnFlush(obj *interp.Object, off, size int, _, _ string, _ int) {
	if !obj.Persistent || s.inDomain() {
		return
	}
	for g := 0; g < size; g += 8 {
		w := Word{Obj: obj.ID, Off: off + g}
		if s.dirty[w] || s.staged[w] {
			s.staged[w] = true
		}
	}
}

// OnFence makes staged words durable and, as a global persist barrier,
// commits buffered domain writes against device failure.
func (s *nvmState) OnFence(_, _ string, _ int) {
	for w := range s.staged {
		s.durable[w] = s.current[w]
		delete(s.dirty, w)
	}
	s.staged = make(map[Word]bool)
	s.commitDomain()
}

// image snapshots the durable state, applying post-crash recovery: an
// open transaction's logged words roll back to their undo pre-images.
func (s *nvmState) image() *Image {
	d := make(map[Word]int64, len(s.durable))
	for w, v := range s.durable {
		d[w] = v
	}
	if s.txDepth > 0 {
		for _, u := range s.undo {
			d[u.w] = u.val
		}
	}
	objs := make(map[int]*interp.Object, len(s.objects))
	for id, o := range s.objects {
		objs[id] = o
	}
	return &Image{durable: d, objects: objs}
}

// deviceImage snapshots the durable state after a DEVICE failure: every
// domain word written since the last global persist barrier rolls back
// to its barrier-committed value (or vanishes if it was never
// committed).  Host-side recovery (the open-tx undo rollback image()
// applies) runs the same either way.
func (s *nvmState) deviceImage() *Image {
	im := s.image()
	for w := range s.domainPending {
		if cv, ok := s.devCommitted[w]; ok {
			im.durable[w] = cv
		} else {
			delete(im.durable, w)
		}
	}
	return im
}

// Violation describes an invariant failure at one crash point.
type Violation struct {
	Step int
	Err  error
}

// Result of a crash enumeration.
type Result struct {
	TotalSteps int
	CrashesRun int
	// Pruned counts steps skipped because no persist-relevant event
	// (write/flush/fence/tx-add/tx-end on persistent memory) fired during
	// them: crashing there yields the same durable image as the previous
	// crash point.  Zero when pruning is off.
	Pruned int
	// Deduped counts persist-relevant steps dropped because their
	// recovered durable state (durable words + in-flight words + open-tx
	// undo log) was identical to an earlier crash point's.  Zero when
	// pruning is off.
	Deduped    int
	Violations []Violation

	// Partial reports graceful degradation: the enumeration was cut
	// short (context canceled mid-planning, crash points skipped, or a
	// point's check panicked) and Violations covers only what ran.
	Partial bool
	// Skipped counts selected crash points that were not checked.
	Skipped int
	// Notes annotates what was skipped or recovered, for the partial
	// report.  Empty on a complete run.
	Notes []string
	// Injections counts faults injected during the planning run (pruned
	// mode with Options.Faults set); FaultLog is the byte-replayable
	// injection log — two runs replay identically iff their FaultLogs
	// are byte-identical.
	Injections int
	FaultLog   string
}

// Clean reports whether no crash point violated the invariant.
func (r *Result) Clean() bool { return len(r.Violations) == 0 }

// String summarizes the result.
func (r *Result) String() string {
	extra := ""
	if r.Pruned > 0 || r.Deduped > 0 {
		extra = fmt.Sprintf(" (pruned %d quiet steps, %d duplicate images)", r.Pruned, r.Deduped)
	}
	if r.Injections > 0 {
		extra += fmt.Sprintf(" (%d faults injected)", r.Injections)
	}
	partial := ""
	if r.Partial {
		partial = fmt.Sprintf(" [partial: %d crash points skipped]", r.Skipped)
	}
	if r.Clean() {
		holds := "invariant holds everywhere"
		if r.Partial {
			holds = "invariant holds at every checked point"
		}
		return fmt.Sprintf("crashsim: %d crash points over %d steps%s, %s%s",
			r.CrashesRun, r.TotalSteps, extra, holds, partial)
	}
	v := r.Violations[0]
	return fmt.Sprintf("crashsim: %d/%d crash points violate the invariant%s (first at step %d: %v)%s",
		len(r.Violations), r.CrashesRun, extra, v.Step, v.Err, partial)
}

// Detail renders the summary plus one line per violated crash point, in
// crash-step order.  Because violations are merged deterministically,
// Detail output is byte-identical for any worker count — the
// determinism gate and the differential harness compare it directly.
func (r *Result) Detail() string {
	var b strings.Builder
	b.WriteString(r.String())
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "\n  step %4d: %v", v.Step, v.Err)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "\n  note: %s", n)
	}
	return b.String()
}

// Invariant inspects a durable image; returning an error marks the
// crash point inconsistent.
type Invariant func(im *Image) error

// maxExactOutcomes bounds exhaustive subset enumeration of in-flight
// words; above it, outcomes are sampled.
const maxExactOutcomes = 10

// sampledOutcomes is how many random persist subsets are tried when the
// in-flight set is too large to enumerate.
const sampledOutcomes = 256

// inFlight returns the words that may or may not have persisted at the
// crash: dirty (evictable) plus staged (clwb'd, awaiting fence), sorted
// for determinism.
func (s *nvmState) inFlight() []Word {
	set := make(map[Word]bool, len(s.dirty)+len(s.staged))
	for w := range s.dirty {
		set[w] = true
	}
	for w := range s.staged {
		set[w] = true
	}
	// Words logged in an open transaction are rolled back by recovery
	// whatever the cache did; their persist outcome is not free.
	if s.txDepth > 0 {
		for w := range s.logged {
			delete(set, w)
		}
	}
	out := make([]Word, 0, len(set))
	for w := range set {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Obj != out[j].Obj {
			return out[i].Obj < out[j].Obj
		}
		return out[i].Off < out[j].Off
	})
	return out
}

// checkOutcomes applies the invariant to every persist outcome of the
// in-flight words (exhaustive for small sets, sampled otherwise), and —
// when the contract has a device persistence domain — to the
// device-failure image at this point as well (uncommitted domain words
// rolled back).
func (s *nvmState) checkOutcomes(inv Invariant, seed int64) error {
	if s.inDomain() {
		if err := inv(s.deviceImage()); err != nil {
			return fmt.Errorf("device-failure image (%d domain words uncommitted by any barrier): %w",
				len(s.domainPending), err)
		}
	}
	flight := s.inFlight()
	base := s.image()
	apply := func(mask uint64) error {
		im := &Image{durable: make(map[Word]int64, len(base.durable)+len(flight)), objects: base.objects}
		for w, v := range base.durable {
			im.durable[w] = v
		}
		for bit, w := range flight {
			if mask&(1<<uint(bit)) != 0 {
				im.durable[w] = s.current[w]
			}
		}
		return inv(im)
	}
	if len(flight) <= maxExactOutcomes {
		for mask := uint64(0); mask < 1<<uint(len(flight)); mask++ {
			if err := apply(mask); err != nil {
				return fmt.Errorf("persist outcome %#x of %d in-flight words: %w", mask, len(flight), err)
			}
		}
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	// Always include the two extremes.
	if err := apply(0); err != nil {
		return fmt.Errorf("persist outcome (none) of %d in-flight words: %w", len(flight), err)
	}
	all := ^uint64(0)
	if len(flight) < 64 {
		all = uint64(1)<<uint(len(flight)) - 1
	}
	if err := apply(all); err != nil {
		return fmt.Errorf("persist outcome (all) of %d in-flight words: %w", len(flight), err)
	}
	for i := 0; i < sampledOutcomes; i++ {
		if err := apply(rng.Uint64()); err != nil {
			return fmt.Errorf("sampled persist outcome of %d in-flight words: %w", len(flight), err)
		}
	}
	return nil
}
