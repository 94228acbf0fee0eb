package faultinj

import (
	"fmt"

	"deepmc/internal/interp"
	"deepmc/internal/ir"
)

// granule is the persistence granularity of injected faults, matching
// the crash simulator's 8-byte word-granular durable image.
const granule = 8

// Wrap returns a Hooks decorator that forwards every event to inner and
// injects sched's faults along the way.  The wrapper always satisfies
// interp.StepObserver (forwarding only when inner does), so it can be
// installed wherever inner could.
//
// Faults take effect through inner's optional extensions:
//
//   - TornWrite calls inner's Evictor (if any) for a nonempty proper
//     subset of the granules of each persistent store of >= 2 granules.
//   - DroppedFlush buffers the clwb instead of forwarding it; the
//     buffered flushes are re-forwarded immediately before the next
//     OnFence, modeling hardware that retries the flush at the drain.
//   - ReorderedPersist / DelayedDrain call inner's PartialFencer (if
//     any) just before each OnFence with a scrambled-subset / canonical
//     prefix pick respectively.
//
// An inner without the extension simply skips that class (recorded
// injections still require the extension, so InjectionsOf stays
// truthful).
//
// When inner also implements interp.ContractHolder, the wrapper obeys
// the advertised hardware contract: inside a CXL persistence domain
// stores are durable whole at store time and a clwb stages nothing, so
// every fault class is ineligible there — torn writes and dropped
// flushes cannot exist, and fences have no staged set for a reordered
// or delayed drain to act on.  The interpreter has no pool address
// space, so (matching the static checker) any non-empty domain is read
// as covering the whole persistent heap.
func Wrap(inner interp.Hooks, sched *Schedule) interp.Hooks {
	h := &hooks{Hooks: inner, sched: sched}
	h.obs, _ = inner.(interp.StepObserver)
	h.evict, _ = inner.(interp.Evictor)
	h.pf, _ = inner.(interp.PartialFencer)
	if ch, ok := inner.(interp.ContractHolder); ok {
		h.inDomain = ch.PersistencyContract().HasDomain()
	}
	return h
}

type flushEv struct {
	obj  *interp.Object
	off  int
	size int
	at   *ir.Site
}

// hooks embeds the inner hook set: events no fault class acts on pass
// straight through.
type hooks struct {
	interp.Hooks
	sched *Schedule
	obs   interp.StepObserver
	evict interp.Evictor
	pf    interp.PartialFencer

	// inDomain: inner's contract puts the persistent heap in a device
	// persistence domain, making every fault class ineligible (see Wrap).
	inDomain bool

	// dropped clwbs awaiting the hardware retry at the next fence
	pending []flushEv
}

func (h *hooks) OnWrite(obj *interp.Object, off, size int, at *ir.Site) {
	h.Hooks.OnWrite(obj, off, size, at)
	if h.inDomain || h.evict == nil || obj == nil || !obj.Persistent || size < 2*granule {
		return
	}
	if !h.sched.Fire(TornWrite) {
		return
	}
	grans := (size + granule - 1) / granule
	sel := h.sched.Subset(grans)
	for _, g := range sel {
		h.evict.OnEvict(obj, off+g*granule, granule, at)
	}
	h.sched.Record(TornWrite, at.String(), fmt.Sprintf("store size=%d persisted granules=%v", size, sel))
}

func (h *hooks) OnFlush(obj *interp.Object, off, size int, at *ir.Site) {
	if !h.inDomain && obj != nil && obj.Persistent && h.sched.Fire(DroppedFlush) {
		h.pending = append(h.pending, flushEv{obj, off, size, at})
		h.sched.Record(DroppedFlush, at.String(),
			fmt.Sprintf("clwb obj#%d+%d size=%d dropped, retried at next fence", obj.ID, off, size))
		return
	}
	h.Hooks.OnFlush(obj, off, size, at)
}

func (h *hooks) OnFence(at *ir.Site) {
	// Hardware retries dropped clwbs at the drain: re-forward them now so
	// the fence's durability guarantee still holds.
	for _, e := range h.pending {
		h.Hooks.OnFlush(e.obj, e.off, e.size, e.at)
	}
	h.pending = h.pending[:0]
	if h.pf != nil && !h.inDomain {
		if h.sched.Fire(ReorderedPersist) {
			h.pf.OnPartialFence(h.pickScrambled(at), at)
		} else if h.sched.Fire(DelayedDrain) {
			h.pf.OnPartialFence(h.pickPrefix(at), at)
		}
	}
	h.Hooks.OnFence(at)
}

// pickScrambled returns a pick function exposing a mid-drain state in
// which an arbitrary (scrambled) nonempty proper subset of the staged
// set has drained.  The injection is recorded only if the callee
// invokes pick (it skips empty staged sets).
func (h *hooks) pickScrambled(at *ir.Site) func(n int) []int {
	return func(n int) []int {
		if n < 2 {
			return nil
		}
		sel := h.sched.Subset(n)
		h.sched.Record(ReorderedPersist, at.String(),
			fmt.Sprintf("mid-drain: %v of %d staged lines retired out of order", sel, n))
		return sel
	}
}

// pickPrefix returns a pick function exposing a mid-drain state in
// which only a canonical-order proper prefix of the staged set has
// drained (the drain is lagging).
func (h *hooks) pickPrefix(at *ir.Site) func(n int) []int {
	return func(n int) []int {
		if n < 2 {
			return nil
		}
		k := 1 + h.sched.Intn(n-1)
		sel := make([]int, k)
		for i := range sel {
			sel[i] = i
		}
		h.sched.Record(DelayedDrain, at.String(),
			fmt.Sprintf("mid-drain: first %d of %d staged lines retired, drain lagging", k, n))
		return sel
	}
}

func (h *hooks) OnStep(step int, op ir.Op) {
	if h.obs != nil {
		h.obs.OnStep(step, op)
	}
}
