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
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"deepmc/internal/interp"
	"deepmc/internal/ir"
	"deepmc/internal/pmcontract"
)

// Word is one 8-byte persistent location: object id + byte offset.
type Word struct {
	Obj int
	Off int
}

// compareWords orders words by (object, offset).
func compareWords(a, b Word) int {
	if c := cmp.Compare(a.Obj, b.Obj); c != 0 {
		return c
	}
	return cmp.Compare(a.Off, b.Off)
}

// Image is the durable view of persistent memory at a crash point.  An
// image handed to an Invariant is valid only during that call: the
// enumerator reuses it for the crash point's next persist outcome.
type Image struct {
	// words is sorted by (object, offset).  A word it lacks reads as
	// zero, like a word recorded with the value zero.
	words   []imageWord
	objects []*interp.Object // sorted by id; shared, never modified
}

// imageWord is one word of an Image and its durable value.
type imageWord struct {
	Word
	v int64
}

// Load returns the durable value of a word (zero if never persisted).
func (im *Image) Load(obj, off int) int64 {
	i, ok := slices.BinarySearchFunc(im.words, Word{Obj: obj, Off: off},
		func(e imageWord, w Word) int { return compareWords(e.Word, w) })
	if !ok {
		return 0
	}
	return im.words[i].v
}

// LoadField returns the durable value of obj.field using the object's
// type layout; ok is false if the object or field is unknown.
func (im *Image) LoadField(objID int, field string) (int64, bool) {
	i, ok := findObject(im.objects, objID)
	if !ok || im.objects[i].Type == nil {
		return 0, false
	}
	off := im.objects[i].Type.FieldOffset(field)
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
func (im *Image) Objects() []*interp.Object { return slices.Clone(im.objects) }

// findObject returns the index of the object with the given id in objs,
// sorted by id, or where it would be inserted.
func findObject(objs []*interp.Object, id int) (int, bool) {
	return slices.BinarySearchFunc(objs, id, func(o *interp.Object, id int) int { return cmp.Compare(o.ID, id) })
}

// wordFlag records what holds for one persistent word.
type wordFlag uint8

const (
	// durable: dur is the value on the medium.
	durable wordFlag = 1 << iota
	// dirty: stored since its last write-back; the line may be evicted
	// at any time.
	dirty
	// staged: flushed (clwb), waiting for a fence.
	staged
	// logged: undo-logged by the open transaction; undo is the pre-image
	// recovery restores.  Only set inside a transaction: the outermost
	// commit clears it.
	logged
	// pending: stored in a persistence domain since the last persist
	// barrier.
	pending
	// committed: commit is the barrier-committed value a device failure
	// rolls a pending word back to.
	committed
)

// word is the crash model's state of one persistent word.
type word struct {
	cur    int64 // the value the program last stored
	dur    int64 // valid when durable
	undo   int64 // valid when logged
	commit int64 // valid when committed
	flags  wordFlag
}

func (e word) has(f wordFlag) bool { return e.flags&f != 0 }

// inFlight reports whether the word may or may not have persisted at a
// crash: dirty (evictable) or staged (clwb'd, awaiting a fence).  Words
// logged in an open transaction are rolled back by recovery whatever the
// cache did, so their persist outcome is not free.
func (e word) inFlight() bool { return e.has(dirty|staged) && !e.has(logged) }

// persist writes the current value back: the word is durable and
// neither dirty nor staged any more.
func (e *word) persist() {
	e.dur = e.cur
	e.flags = e.flags&^(dirty|staged) | durable
}

// recovered is the word's value after a crash and recovery: its durable
// value, an open transaction's undo pre-image, or — after a device
// failure — its barrier-committed value; zero if it has none.
func (e word) recovered(device bool) int64 {
	v, ok := e.dur, e.has(durable)
	if e.has(logged) {
		v, ok = e.undo, true
	}
	if device && e.has(pending) {
		v, ok = e.commit, e.has(committed)
	}
	if !ok {
		return 0
	}
	return v
}

// entry is one row of the word table: a word and its state.
type entry struct {
	Word
	word
}

// nvmState tracks volatile vs durable word state under clwb/sfence
// semantics (word-granular persistence domain), plus undo-log
// transaction semantics: TX_ADD snapshots pre-images, commit persists
// the logged words, and a crash inside an open transaction is followed
// by recovery rolling the logged words back.  The state of every word
// the program touched lives in one table.
type nvmState struct {
	interp.NopHooks
	// words is the word table, sorted by (object, offset), so keys,
	// images and drain lists come out in that order without a sort.
	words []entry

	// objects holds the persistent objects a write or undo-log
	// registration reached, sorted by id.  It only grows, and each
	// addition builds a new slice, so snapshots and images share it.
	objects []*interp.Object

	txDepth int

	// contract selects the crash-discard rule; the zero value is x86.
	// With a CXL persistence domain (whole-heap at this layer),
	// in-domain writes go straight to durable and stay pending until a
	// barrier commits them.
	contract pmcontract.Contract

	// relevant records that a hook touched persistent state since the
	// crash planner last looked (see planner.OnStep): a persistent
	// write, flush, undo-log registration or eviction, or any fence or
	// commit.
	relevant bool
}

func newNVMState(c pmcontract.Contract) *nvmState {
	return &nvmState{contract: c}
}

// inDomain reports whether persistent words live in a device
// persistence domain.  The interpreter has no pool address space, so
// (matching the static checker) any non-empty domain covers the whole
// persistent heap.
func (s *nvmState) inDomain() bool { return s.contract.HasDomain() }

// PersistencyContract implements interp.ContractHolder so fault
// decorators (faultinj.Wrap) keep injections legal under the contract.
func (s *nvmState) PersistencyContract() pmcontract.Contract { return s.contract }

// touch records obj among the objects a crash image can name.  The
// clipped slice makes the insertion copy, leaving sharers unchanged.
func (s *nvmState) touch(obj *interp.Object) {
	if i, ok := findObject(s.objects, obj.ID); !ok {
		s.objects = slices.Insert(slices.Clip(s.objects), i, obj)
	}
}

// find returns the index of w in the word table, or where it would be
// inserted.
func (s *nvmState) find(w Word) (int, bool) {
	return slices.BinarySearchFunc(s.words, w, func(e entry, w Word) int { return compareWords(e.Word, w) })
}

// at returns w's state in the table, adding a zero state for it first
// if the table has none.
func (s *nvmState) at(w Word) *word {
	i, ok := s.find(w)
	if !ok {
		s.words = slices.Insert(s.words, i, entry{Word: w})
	}
	return &s.words[i].word
}

// OnTxBegin opens a transaction level.
func (s *nvmState) OnTxBegin(*ir.Site) { s.txDepth++ }

// OnTxAdd records undo pre-images for the logged range.  The pre-image
// is the current content, as PMDK's TX_ADD snapshots it.
func (s *nvmState) OnTxAdd(obj *interp.Object, off, size int, _ *ir.Site) {
	if !obj.Persistent {
		return
	}
	s.relevant = true
	if s.txDepth == 0 {
		return
	}
	s.touch(obj)
	for g := 0; g < size; g += 8 {
		if e := s.at(Word{Obj: obj.ID, Off: off + g}); !e.has(logged) {
			e.undo = e.cur
			e.flags |= logged
		}
	}
}

// OnTxEnd commits at the outermost level: logged words persist with
// their current values (PMDK flushes logged ranges at TX_COMMIT) and the
// undo log retires.  A commit includes a persist barrier.
func (s *nvmState) OnTxEnd(*ir.Site) {
	s.relevant = true
	if s.txDepth > 0 {
		s.txDepth--
	}
	if s.txDepth == 0 {
		s.persistAndCommit(logged)
	}
}

// OnFence makes staged words durable and, as a global persist barrier,
// commits buffered domain writes against device failure.
func (s *nvmState) OnFence(*ir.Site) {
	s.relevant = true
	s.persistAndCommit(staged)
}

// persistAndCommit is the step a fence and a transaction commit share:
// words marked sel persist and lose that mark, and every pending domain
// word's durable value becomes its barrier-committed value.
func (s *nvmState) persistAndCommit(sel wordFlag) {
	for i := range s.words {
		e := &s.words[i].word
		if e.has(sel) {
			e.persist()
			e.flags &^= sel
		}
		if e.has(pending) {
			e.commit = e.dur
			e.flags = e.flags&^pending | committed
		}
	}
}

// OnWrite mirrors a persistent store into the volatile view.  In a
// persistence domain the store is durable at store time — no dirty
// window — but stays device-buffered (pending) until a barrier commits
// it against device failure.
func (s *nvmState) OnWrite(obj *interp.Object, off, size int, _ *ir.Site) {
	if !obj.Persistent {
		return
	}
	s.relevant = true
	s.touch(obj)
	inDom := s.inDomain()
	for g := 0; g < size; g += 8 {
		e := s.at(Word{Obj: obj.ID, Off: off + g})
		if slot := (off + g) / 8; slot < len(obj.Slots) {
			e.cur = obj.Slots[slot].I
		}
		if inDom {
			e.dur = e.cur
			e.flags |= durable | pending
		} else {
			e.flags |= dirty
		}
	}
}

// OnEvict implements interp.Evictor: an injected eviction persists the
// range immediately (legal for dirty lines at any time under
// clwb/sfence), bypassing flush/fence staging.  Words logged in an open
// transaction still roll back at recovery — image applies the undo
// log over whatever the cache persisted.
func (s *nvmState) OnEvict(obj *interp.Object, off, size int, _ *ir.Site) {
	if !obj.Persistent {
		return
	}
	s.relevant = true
	s.touch(obj)
	for g := 0; g < size; g += 8 {
		e := s.at(Word{Obj: obj.ID, Off: off + g})
		if slot := (off + g) / 8; slot < len(obj.Slots) {
			e.cur = obj.Slots[slot].I
		}
		e.persist()
	}
}

// OnFlush stages dirty words for write-back.  In a persistence domain
// there is nothing to stage — the store was durable at store time.
func (s *nvmState) OnFlush(obj *interp.Object, off, size int, _ *ir.Site) {
	if !obj.Persistent {
		return
	}
	s.relevant = true
	if s.inDomain() {
		return
	}
	for g := 0; g < size; g += 8 {
		if i, ok := s.find(Word{Obj: obj.ID, Off: off + g}); ok && s.words[i].has(dirty|staged) {
			s.words[i].flags |= staged
		}
	}
}

// image returns the durable state a crash leaves, after recovery: an
// open transaction's logged words roll back to their undo pre-images.
// With device set it is the image after a DEVICE failure: every domain
// word written since the last global persist barrier also rolls back to
// its barrier-committed value, or vanishes if it was never committed.
// The image's words parallel the table's, and it shares the object set.
func (s *nvmState) image(device bool) *Image {
	im := &Image{words: make([]imageWord, len(s.words)), objects: s.objects}
	s.fill(im, device)
	return im
}

// fill rewrites every word of im, an image of this state, as image
// (device) would build it.
func (s *nvmState) fill(im *Image, device bool) {
	for i, e := range s.words {
		im.words[i] = imageWord{Word: e.Word, v: e.recovered(device)}
	}
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
// crash point inconsistent.  The image is valid only during the call:
// the enumerator rewrites it for the next persist outcome, so an
// invariant must neither keep it nor modify it.
type Invariant func(im *Image) error

// maxExactOutcomes bounds exhaustive subset enumeration of in-flight
// words; above it, outcomes are sampled.
const maxExactOutcomes = 10

// sampledOutcomes is how many random persist subsets are tried when the
// in-flight set is too large to enumerate.
const sampledOutcomes = 256

// checkOutcomes applies the invariant to every persist outcome of the
// in-flight words (exhaustive for small sets, sampled otherwise), and —
// when the contract has a device persistence domain — to the
// device-failure image at this point as well (uncommitted domain words
// rolled back).  It builds one image for the crash point: each outcome
// sets its persisted in-flight words around the invariant call and then
// restores them.
func (s *nvmState) checkOutcomes(inv Invariant, seed int64) error {
	im := s.image(s.inDomain())
	if s.inDomain() {
		if err := inv(im); err != nil {
			uncommitted := 0
			for _, e := range s.words {
				if e.has(pending) {
					uncommitted++
				}
			}
			return fmt.Errorf("device-failure image (%d domain words uncommitted by any barrier): %w",
				uncommitted, err)
		}
		s.fill(im, false)
	}
	var flight []int
	for i, e := range s.words {
		if e.inFlight() {
			flight = append(flight, i)
		}
	}
	apply := func(mask uint64) error {
		for bit, i := range flight {
			if mask&(1<<uint(bit)) != 0 {
				im.words[i].v = s.words[i].cur
			}
		}
		err := inv(im)
		for bit, i := range flight {
			if mask&(1<<uint(bit)) != 0 {
				im.words[i].v = s.words[i].recovered(false)
			}
		}
		return err
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
