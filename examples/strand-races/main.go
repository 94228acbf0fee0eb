// strand-races demonstrates DeepMC's dynamic analysis (paper §4.4): a
// strand-persistency program whose strands carry a hidden data
// dependence.  The instrumented runtime detects the WAW dependence with
// happens-before race detection over shadow segments, while the
// correctly-ordered variant runs clean.
//
//	go run ./examples/strand-races
package main

import (
	"context"
	"fmt"
	"log"

	"deepmc/internal/core"
	"deepmc/internal/ir"
)

const program = `
module bank

type account struct {
	balance: int
	nonce: int
}

; Two strands both persist the same account balance.  Under strand
; persistency they may drain concurrently, so the final durable value is
; unpredictable: a WAW dependence the model forbids.
func racy_transfer(a: *account) {
	file "transfer.c"
	strandbegin 1         @20
	store %a.balance, 100 @21
	flush %a.balance      @22
	strandend 1           @23
	strandbegin 2         @24
	store %a.balance, 250 @25
	flush %a.balance      @26
	strandend 2           @27
	fence                 @28
	ret
}

; The fixed variant orders the strands with a persist barrier.
func ordered_transfer(a: *account) {
	file "transfer.c"
	strandbegin 1         @40
	store %a.balance, 100 @41
	flush %a.balance      @42
	strandend 1           @43
	fence                 @44
	strandbegin 2         @45
	store %a.balance, 250 @46
	flush %a.balance      @47
	strandend 2           @48
	fence                 @49
	ret
}

func main_racy() {
	%a = palloc account
	call racy_transfer(%a)
	ret
}

func main_ordered() {
	%a = palloc account
	call ordered_transfer(%a)
	ret
}
`

func main() {
	m, err := ir.Parse(program)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Running the racy strand program under DeepMC's runtime:")
	rep, _, err := core.RunDynamic(context.Background(), m, core.Config{}, "main_racy", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep)

	fmt.Println("\nRunning the barrier-ordered variant:")
	rep, _, err = core.RunDynamic(context.Background(), m, core.Config{}, "main_ordered", nil)
	if err != nil {
		log.Fatal(err)
	}
	if len(rep.Warnings) == 0 {
		fmt.Println("no warnings: the persist barrier orders the strands")
	} else {
		fmt.Print(rep)
	}
}
