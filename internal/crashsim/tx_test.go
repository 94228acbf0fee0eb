package crashsim

import (
	"fmt"
	"testing"

	"deepmc/internal/ir"
)

// figure2Program is the paper's Figure 2 bug in crash-validatable form:
// a transactional update where one write is undo-logged and another —
// the split node's item — is not.  The committed flag persists with the
// transaction, so the invariant can distinguish pre- and post-commit
// states.
func figure2Program(fixed bool) string {
	logNode := ""
	if fixed {
		logNode = "\ttxadd %node\n"
	}
	return fmt.Sprintf(`
module btree

type node_t struct {
	item: int
	committed: int
}

func main() {
	%%node = palloc node_t
	txbegin
%s	txadd %%node.committed
	store %%node.item, 7
	store %%node.committed, 1
	txend
	fence
	ret
}
`, logNode)
}

// figure2Invariant: once the commit marker is durable, the item update
// must be durable too (the transaction promised atomic durability).
func figure2Invariant(im *Image) error {
	committed, ok := im.LoadField(1, "committed")
	if !ok || committed == 0 {
		return nil
	}
	if item, _ := im.LoadField(1, "item"); item != 7 {
		return fmt.Errorf("transaction committed but item = %d", item)
	}
	return nil
}

func TestFigure2UnloggedWriteViolatesAtomicity(t *testing.T) {
	m := ir.MustParse(figure2Program(false))
	res, err := EnumerateOpts(m, "main", figure2Invariant, Options{Stride: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean() {
		t.Fatalf("the unlogged transactional write produced no inconsistent state:\n%s", res)
	}
}

func TestFigure2LoggedWriteIsAtomic(t *testing.T) {
	m := ir.MustParse(figure2Program(true))
	res, err := EnumerateOpts(m, "main", figure2Invariant, Options{Stride: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("the fully logged transaction violated atomicity:\n%s", res)
	}
}

// TestAbortedTxRollsBack: a crash inside an open transaction must leave
// the logged words at their pre-transaction values after recovery.
func TestAbortedTxRollsBack(t *testing.T) {
	src := `
module rollback

type acct struct {
	bal: int
}

func main() {
	%a = palloc acct
	store %a.bal, 50
	flush %a.bal
	fence
	txbegin
	txadd %a.bal
	store %a.bal, 999
	txend
	fence
	ret
}
`
	// The balance is either the old durable 50 (pre-commit crash, after
	// rollback) or the new 999 (post-commit) — never anything else.
	inv := func(im *Image) error {
		bal, ok := im.LoadField(1, "bal")
		if !ok {
			return nil
		}
		if bal != 0 && bal != 50 && bal != 999 {
			return fmt.Errorf("torn balance %d", bal)
		}
		return nil
	}
	m := ir.MustParse(src)
	res, err := EnumerateOpts(m, "main", inv, Options{Stride: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("undo-log recovery produced a torn state:\n%s", res)
	}
}

// TestNestedTxCommitsAtOutermost: inner txend must not retire the undo
// log early.
func TestNestedTxCommitsAtOutermost(t *testing.T) {
	src := `
module nested

type o struct {
	v: int
	done: int
}

func main() {
	%p = palloc o
	txbegin
	txadd %p
	store %p.v, 3
	txbegin
	store %p.done, 1
	txend
	txend
	fence
	ret
}
`
	inv := func(im *Image) error {
		done, ok := im.LoadField(1, "done")
		if !ok || done == 0 {
			return nil
		}
		if v, _ := im.LoadField(1, "v"); v != 3 {
			return fmt.Errorf("inner-tx marker durable but outer update lost (v=%d)", v)
		}
		return nil
	}
	m := ir.MustParse(src)
	res, err := EnumerateOpts(m, "main", inv, Options{Stride: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("nested commit broke atomicity:\n%s", res)
	}
}
