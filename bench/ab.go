package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"agilepaging/internal/stats"
)

// abSummary reads the result lines ab.sh collects, one per run as
// "side workload pair {result}", and prints per workload and metric each
// side's median and quartiles, the head's wins over the base across pairs,
// and whether the head wins at least nine pairs in ten by more than the
// base's own quartile spread. Every end-to-end metric of this benchmark is
// better lower.
func abSummary(in io.Reader, out io.Writer) error {
	type key struct{ workload, metric string }
	vals := map[key]map[string]map[int]float64{} // side -> pair -> value
	incorrect := map[string]int{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.SplitN(sc.Text(), " ", 4)
		if len(f) != 4 {
			return fmt.Errorf("malformed line %q", sc.Text())
		}
		side, w := f[0], f[1]
		pair, err := strconv.Atoi(f[2])
		if err != nil {
			return fmt.Errorf("line %q: %w", sc.Text(), err)
		}
		var res result
		if err := json.Unmarshal([]byte(f[3]), &res); err != nil {
			return fmt.Errorf("line %q: %w", sc.Text(), err)
		}
		if !res.Correct {
			incorrect[side+" "+w]++
		}
		for m, v := range res.Metrics {
			k := key{w, m}
			if vals[k] == nil {
				vals[k] = map[string]map[int]float64{"base": {}, "head": {}}
			}
			vals[k][side][pair] = v.Value
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	keys := make([]key, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(out, "%-13s %-18s %-32s %-32s %-6s %s\n", "workload", "metric", "base median [q1 q3]", "head median [q1 q3]", "wins", "gain")
	for _, k := range keys {
		base, head := vals[k]["base"], vals[k]["head"]
		wins, pairs := 0, 0
		for p, b := range base {
			if h, ok := head[p]; ok {
				pairs++
				if h < b {
					wins++
				}
			}
		}
		bq, hq := quartiles(base), quartiles(head)
		gain := pairs > 0 && wins*10 >= 9*pairs && bq[1]-hq[1] > bq[2]-bq[0]
		fmt.Fprintf(out, "%-13s %-18s %-32s %-32s %-6s %t\n", k.workload, k.metric,
			fmt.Sprintf("%.6g [%.6g %.6g]", bq[1], bq[0], bq[2]),
			fmt.Sprintf("%.6g [%.6g %.6g]", hq[1], hq[0], hq[2]),
			fmt.Sprintf("%d/%d", wins, pairs), gain)
	}
	for s, n := range incorrect {
		fmt.Fprintf(out, "INCORRECT OUTPUT: %s in %d runs\n", s, n)
	}
	return nil
}

func quartiles(m map[int]float64) []float64 {
	xs := make([]float64, 0, len(m))
	for _, v := range m {
		xs = append(xs, v)
	}
	return stats.Percentiles(xs, 0.25, 0.5, 0.75)
}
