// perfbug-speedup reproduces the paper's §5.1 claim that manually fixing
// the performance bugs DeepMC reports improves application performance
// (up to 43% in the paper): seven performance bugs of Tables 3 and 8
// run as the corpus program's own functions in a workload loop, as
// written and as repaired, each priced on the NVM simulator's pool.
//
//	go run ./examples/perfbug-speedup
package main

import (
	"fmt"

	"deepmc/internal/tables"
)

func main() {
	fmt.Print(tables.PerfFix())
}
