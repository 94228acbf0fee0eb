// crash-validate demonstrates why the model-violation bugs DeepMC
// reports matter: it enumerates every crash point of a commit protocol
// under adversarial persist ordering (dirty lines may evict, clwb'd
// lines may drain, at any moment) and checks a consistency invariant on
// each reachable durable state — the validation approach of Yat, which
// the paper compares against.
//
//	go run ./examples/crash-validate
package main

import (
	"fmt"
	"log"

	"deepmc/internal/crashsim"
	"deepmc/internal/ir"
)

const buggy = `
module commit

type rec struct {
	data: int
	flag: int
}

func main() {
	%r = palloc rec
	store %r.data, 7
	; BUG: data is never flushed before the commit flag persists.
	store %r.flag, 1
	flush %r.flag
	fence
	ret
}
`

const fixed = `
module commit

type rec struct {
	data: int
	flag: int
}

func main() {
	%r = palloc rec
	store %r.data, 7
	flush %r.data
	fence
	store %r.flag, 1
	flush %r.flag
	fence
	ret
}
`

// invariant: a durable commit flag promises durable data.
func invariant(im *crashsim.Image) error {
	flag, ok := im.LoadField(1, "flag")
	if !ok || flag == 0 {
		return nil
	}
	if data, _ := im.LoadField(1, "data"); data != 7 {
		return fmt.Errorf("committed (flag=1) but data=%d", data)
	}
	return nil
}

func main() {
	for _, v := range []struct{ name, src string }{
		{"buggy (unflushed write)", buggy},
		{"fixed (flush + barrier)", fixed},
	} {
		m, err := ir.Parse(v.src)
		if err != nil {
			log.Fatal(err)
		}
		res, err := crashsim.EnumerateOpts(m, "main", invariant, crashsim.Options{Stride: 1, Workers: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-26s %s\n", v.name+":", res)
	}
}
