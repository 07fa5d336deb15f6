package agilepaging_test

import (
	"context"
	"fmt"
	"log"

	"agilepaging"
)

// ExampleRun measures one workload under agile paging and reports which
// cost components appear.
func ExampleRun() {
	res, err := agilepaging.Run(agilepaging.Config{
		Workload:  "mcf", // static footprint: shadow-friendly
		Technique: agilepaging.Agile,
		PageSize:  agilepaging.Page4K,
		Accesses:  60_000,
		Seed:      1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("technique: %s\n", res.Technique)
	fmt.Printf("avg walk refs per TLB miss: %.0f\n", res.AvgRefsPerMiss)
	fmt.Printf("VM exits in steady state: %d\n", res.VMExits)
	// Output:
	// technique: agile
	// avg walk refs per TLB miss: 1
	// VM exits in steady state: 0
}

// ExampleCompare reproduces the paper's headline on its worst shadow-paging
// case: agile paging beats both constituent techniques.
func ExampleCompare() {
	results, _, err := agilepaging.Compare(context.Background(), agilepaging.RunAllOptions{},
		agilepaging.Config{Workload: "dedup", PageSize: agilepaging.Page4K, Accesses: 60_000, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	native, nested, shadow, agile := results[0], results[1], results[2], results[3]
	best := nested.TotalOverhead
	if shadow.TotalOverhead < best {
		best = shadow.TotalOverhead
	}
	fmt.Printf("agile beats best constituent: %v\n", agile.TotalOverhead < best)
	fmt.Printf("agile within 25%% of native:   %v\n",
		(1+agile.TotalOverhead)/(1+native.TotalOverhead) < 1.25)
	fmt.Printf("shadow pays VM exits:         %v\n", shadow.VMExits > 1000)
	fmt.Printf("agile mostly avoids them:     %v\n", agile.VMExits < shadow.VMExits/10)
	// Output:
	// agile beats best constituent: true
	// agile within 25% of native:   true
	// shadow pays VM exits:         true
	// agile mostly avoids them:     true
}

// ExampleScenario scripts the paper's copy-on-write example (§II-B): under
// shadow paging, marking pages copy-on-write costs at least two VM exits
// per page.
func ExampleScenario() {
	base := uint64(0x4000_0000)
	const pages = 32
	s := agilepaging.NewScenario()
	s.Map(0, base, pages<<12, agilepaging.Page4K).Populate(0, base)
	s.TouchRange(0, base, pages<<12, agilepaging.Page4K)
	s.Snapshot(0, base)

	res, err := s.Run(agilepaging.ScenarioConfig{
		Technique: agilepaging.Shadow,
		PageSize:  agilepaging.Page4K,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot of %d pages cost >= %d VM exits: %v\n",
		pages, 2*pages, res.VMExits >= 2*pages)
	// Output:
	// snapshot of 32 pages cost >= 64 VM exits: true
}
