package crashsim

import (
	"fmt"
	"sort"
	"strings"

	"deepmc/internal/interp"
	"deepmc/internal/ir"
	"deepmc/internal/pmcontract"
)

// planPoint is one surviving crash candidate from the planning run: the
// step to crash after, the canonical key of the state an invariant
// would observe there, and a snapshot of that state.  The snapshot is
// what makes pruned enumeration O(n) instead of O(points x steps): the
// invariant is checked directly against it, with no per-point
// re-execution.
type planPoint struct {
	step int
	key  string
	snap *nvmState
	// mid marks a synthetic mid-drain state injected by the
	// reordered-persist / delayed-drain fault classes: a crash imagined
	// inside the sfence at this step, with only part of the staged set
	// durable.  Not reachable by a MaxSteps re-execution.
	mid bool
}

// planner executes the program once with full nvmState tracking and
// records a crash candidate after every step during which a
// persist-relevant hook fired.  Crashing after any other step yields a
// state with an identical key — nothing that feeds checkOutcomes
// (durable words, in-flight words, undo log, touched objects) can
// change without one of these hooks firing — so those steps are pruned
// without running them.
type planner struct {
	*nvmState
	points []planPoint
	// pendingMid holds mid-drain fault states awaiting attribution to
	// the fence instruction's step index (known only at its OnStep).
	pendingMid []*nvmState
}

// newPlanner pre-records the empty pre-event image as the step-1 crash
// point: it represents the whole persist-quiet prefix, which the legacy
// enumerator also checks as k = 1.  It must be recorded eagerly rather
// than from OnStep(1), because when main's first instruction is a call
// the callee's steps complete (and report) first — OnStep(1) then fires
// last, with the post-callee state, while a re-execution under
// MaxSteps = 1 stops before the callee runs at all (the empty image).
// Recording eagerly keeps points in ascending step order and keeps the
// step-1 snapshot equal to what a MaxSteps = 1 run observes.  If step 1
// is itself persist-relevant its OnStep records a second step-1 point
// with the true post-step state.
func newPlanner(c pmcontract.Contract) *planner {
	p := &planner{nvmState: newNVMState(c)}
	p.points = append(p.points, planPoint{step: 1, key: p.stateKey(), snap: p.nvmState.snapshot()})
	return p
}

// OnPartialFence (interp.PartialFencer) records the mid-drain state of
// an injected reordered/delayed persist as an extra crash candidate:
// the picked staged words (canonical order) are already durable, the
// rest are still staged.  The snapshot is queued until the fence's
// OnStep supplies the step index.
func (p *planner) OnPartialFence(pick func(n int) []int, _ *ir.Site) {
	staged := make([]Word, 0, len(p.staged))
	for w := range p.staged {
		staged = append(staged, w)
	}
	if len(staged) == 0 {
		return
	}
	sortWords(staged)
	sel := pick(len(staged))
	if len(sel) == 0 {
		return
	}
	snap := p.nvmState.snapshot()
	for _, i := range sel {
		if i < 0 || i >= len(staged) {
			continue
		}
		w := staged[i]
		snap.durable[w] = snap.current[w]
		delete(snap.dirty, w)
		delete(snap.staged, w)
	}
	p.pendingMid = append(p.pendingMid, snap)
}

// OnStep implements interp.StepObserver: the interpreter calls it after
// the instruction at the given step has fully executed, so the state
// key snapshotted here is exactly what a re-execution with MaxSteps =
// step observes.
func (p *planner) OnStep(step int, _ ir.Op) {
	for _, snap := range p.pendingMid {
		p.points = append(p.points, planPoint{step: step, key: snap.stateKey(), snap: snap, mid: true})
	}
	p.pendingMid = p.pendingMid[:0]
	if !p.relevant {
		return
	}
	p.relevant = false
	p.points = append(p.points, planPoint{step: step, key: p.stateKey(), snap: p.nvmState.snapshot()})
}

// snapshot deep-copies the mutable tracking state.  Object pointers are
// shared: the interpreter mutates only their volatile Slots, which the
// crash model never reads — the durable image is reconstructed from the
// tracked word maps, and objects contribute only their immutable
// ID/Type/Persistent metadata.
func (s *nvmState) snapshot() *nvmState {
	c := &nvmState{
		current:       make(map[Word]int64, len(s.current)),
		durable:       make(map[Word]int64, len(s.durable)),
		dirty:         make(map[Word]bool, len(s.dirty)),
		staged:        make(map[Word]bool, len(s.staged)),
		objects:       make(map[int]*interp.Object, len(s.objects)),
		txDepth:       s.txDepth,
		undo:          append([]undoRec(nil), s.undo...),
		logged:        make(map[Word]bool, len(s.logged)),
		contract:      s.contract,
		domainPending: make(map[Word]bool, len(s.domainPending)),
		devCommitted:  make(map[Word]int64, len(s.devCommitted)),
	}
	for w := range s.domainPending {
		c.domainPending[w] = true
	}
	for w, v := range s.devCommitted {
		c.devCommitted[w] = v
	}
	for w, v := range s.current {
		c.current[w] = v
	}
	for w, v := range s.durable {
		c.durable[w] = v
	}
	for w := range s.dirty {
		c.dirty[w] = true
	}
	for w := range s.staged {
		c.staged[w] = true
	}
	for id, o := range s.objects {
		c.objects[id] = o
	}
	for w := range s.logged {
		c.logged[w] = true
	}
	return c
}

// stateKey canonically encodes everything checkOutcomes consumes:
// durable words with values, in-flight words with their would-persist
// values, the open transaction's undo pre-images (recovery rolls these
// back whatever the cache did), the device-failure rollback state
// (pending domain words with the committed value they roll back to),
// and the set of touched objects.  Two crash points with equal keys
// produce identical invariant verdicts, so the second is safely
// deduped.
func (s *nvmState) stateKey() string {
	var b strings.Builder
	words := make([]Word, 0, len(s.durable))
	for w := range s.durable {
		words = append(words, w)
	}
	sortWords(words)
	for _, w := range words {
		fmt.Fprintf(&b, "d%d.%d=%d;", w.Obj, w.Off, s.durable[w])
	}
	b.WriteByte('|')
	for _, w := range s.inFlight() {
		fmt.Fprintf(&b, "f%d.%d=%d;", w.Obj, w.Off, s.current[w])
	}
	b.WriteByte('|')
	if s.txDepth > 0 {
		u := append([]undoRec(nil), s.undo...)
		sort.Slice(u, func(i, j int) bool {
			if u[i].w.Obj != u[j].w.Obj {
				return u[i].w.Obj < u[j].w.Obj
			}
			return u[i].w.Off < u[j].w.Off
		})
		for _, r := range u {
			fmt.Fprintf(&b, "u%d.%d=%d;", r.w.Obj, r.w.Off, r.val)
		}
	}
	b.WriteByte('|')
	if len(s.domainPending) > 0 {
		pend := make([]Word, 0, len(s.domainPending))
		for w := range s.domainPending {
			pend = append(pend, w)
		}
		sortWords(pend)
		for _, w := range pend {
			if cv, ok := s.devCommitted[w]; ok {
				fmt.Fprintf(&b, "p%d.%d>%d;", w.Obj, w.Off, cv)
			} else {
				fmt.Fprintf(&b, "p%d.%d>!;", w.Obj, w.Off)
			}
		}
	}
	b.WriteByte('|')
	ids := make([]int, 0, len(s.objects))
	for id := range s.objects {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "o%d;", id)
	}
	return b.String()
}

func sortWords(ws []Word) {
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].Obj != ws[j].Obj {
			return ws[i].Obj < ws[j].Obj
		}
		return ws[i].Off < ws[j].Off
	})
}
