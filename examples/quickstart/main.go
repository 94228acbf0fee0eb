// Quickstart: write an NVM program in PIR, declare its persistency
// model, and let DeepMC's static checker find the deep persistency bugs.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"deepmc/internal/core"
	"deepmc/internal/ir"
)

// program is a small strict-persistency NVM routine with two planted
// bugs: account.balance is updated without a covering flush (a model
// violation that loses the update on a crash), and the audit record is
// flushed although nothing modified it (a performance bug).
const program = `
module quickstart

type account struct {
	balance: int
	owner: int
}

type audit struct {
	last_op: int
}

func deposit(acct: *account, log: *audit, amount) {
	file "bank.c"
	%b = load %acct.balance       @10
	%nb = add %b, %amount         @11
	store %acct.balance, %nb      @12
	; BUG: the balance update is never flushed before the barrier.
	fence                         @14
	; BUG: the audit record is written back without being modified.
	flush %log.last_op            @16
	fence                         @17
	ret
}

func main() {
	%a = palloc account
	%l = palloc audit
	call deposit(%a, %l, 100)
	ret
}
`

func main() {
	m, err := ir.Parse(program)
	if err != nil {
		log.Fatal(err)
	}
	// The only configuration DeepMC needs is the model flag (paper §4.5).
	rep, err := core.Analyze(m, core.Config{Model: "strict"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("DeepMC static analysis of the quickstart program:")
	fmt.Println()
	fmt.Print(rep)
}
