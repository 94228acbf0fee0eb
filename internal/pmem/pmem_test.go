package pmem

import "testing"

// Two client threads storing to one address with no lock or fence
// between them race from their very first event: each thread is a
// strand from the start, not only once it has released a lock.  The
// warning names each port function as its file at line 0.
func TestCheckerTrackerRacesFromFirstEvent(t *testing.T) {
	tr := NewCheckerTracker()
	tr.Write(1, 0x40, "item_link")
	tr.Write(2, 0x40, "item_unlink")
	want := "WARNING [Model Violation/dynamic] item_unlink:0 (DMC-D01 strand-data-dependence): " +
		"WAW dependence between strands 1 and 2 on persistent address 0x40 (previous access at item_link:0): " +
		"dependent persists must share a strand or be ordered by a barrier\n" +
		"1 warnings (1 model violations, 0 performance)\n"
	if got := tr.C.Report().String(); got != want {
		t.Errorf("report:\n%s\nwant:\n%s", got, want)
	}
}
