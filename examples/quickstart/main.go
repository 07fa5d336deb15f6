// Quickstart: run one of the paper's workloads under all four
// memory-virtualization techniques and see agile paging exceed the best of
// nested and shadow paging (paper §VII.A).
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"agilepaging"
)

func main() {
	const workload = "dedup" // the paper's worst case for shadow paging

	fmt.Printf("Simulating %q (%d available workloads: %v)\n\n",
		workload, len(agilepaging.Workloads()), agilepaging.Workloads())

	results, _, err := agilepaging.Compare(context.Background(), agilepaging.RunAllOptions{},
		agilepaging.Config{Workload: workload, PageSize: agilepaging.Page4K, Accesses: 120_000, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "technique\twalk overhead\tVMM overhead\ttotal\tVM exits")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%.1f%%\t%.1f%%\t%.1f%%\t%d\n",
			r.Technique, 100*r.WalkOverhead, 100*r.VMMOverhead, 100*r.TotalOverhead, r.VMExits)
	}
	w.Flush()

	native, nested, shadow, agile := results[0], results[1], results[2], results[3]
	best := nested
	if shadow.TotalOverhead < nested.TotalOverhead {
		best = shadow
	}
	fmt.Printf("\nAgile paging vs best constituent (%s): %+.1f%%\n",
		best.Technique, 100*((1+best.TotalOverhead)/(1+agile.TotalOverhead)-1))
	fmt.Printf("Agile paging vs unvirtualized native:  %+.1f%% slower\n",
		100*((1+agile.TotalOverhead)/(1+native.TotalOverhead)-1))
	fmt.Printf("Agile mode switches: %d to nested, %d back to shadow\n",
		agile.SwitchesToNested, agile.SwitchesToShadow)
}
