package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// repeatMode is the steadiness evidence: it runs the workloads
// alternately n times, each run in its own child process with the next
// seed, so runs of one workload never form a back-to-back block that a
// drifting host could bias.  It then prints each end-to-end metric's
// median and quartiles next to the bound BENCHMARK.json gives it.
func repeatMode(cfg config, n int, stdout io.Writer) int {
	list := make([]string, 0, len(workloads))
	for _, w := range workloads {
		list = append(list, w.name)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	bounds := readBounds("BENCHMARK.json")
	values := map[string]map[string][]float64{}
	failures := 0
	for r := 0; r < n; r++ {
		seed := cfg.seed + uint64(r)
		for k := range list {
			w := list[(k+r)%len(list)] // rotate so no workload always runs first
			cmd := exec.Command(exe, "-workload", w, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(cfg.seconds), "-trace", "0",
				"-"+serveRateFlag, fmt.Sprint(cfg.serveRate),
				"-build-dir", cfg.buildDir, "-commit", cfg.commit)
			cmd.Stderr = os.Stderr
			outb, err := cmd.Output()
			res, perr := lastResult(outb)
			if err != nil || perr != nil || !res.Correct {
				failures++
				fmt.Fprintf(stdout, "run %d %s seed %d FAILED: %v %v\n", r, w, seed, err, perr)
				continue
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			var parts []string
			for _, m := range sortedKeys(res.Metrics) {
				values[w][m] = append(values[w][m], res.Metrics[m].Value)
				parts = append(parts, fmt.Sprintf("%s=%.6g", m, res.Metrics[m].Value))
			}
			fmt.Fprintf(stdout, "run %d %s seed %d: %s\n", r, w, seed, strings.Join(parts, " "))
		}
	}
	fmt.Fprintf(stdout, "\n%-10s %-18s %4s %12s %12s %12s %8s %6s %s\n", "workload", "metric", "n", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, w := range list {
		for _, m := range sortedKeys(values[w]) {
			xs := values[w][m]
			q1, q2, q3, ok := quartiles(xs)
			if !ok {
				continue
			}
			sp := spread(xs)
			verdict := "no bound"
			if b, ok := bounds[m]; ok {
				switch {
				case sp <= b/3:
					verdict = "steady (< bound/3)"
				case sp <= b:
					verdict = "within bound"
				default:
					verdict = "TOO NOISY"
				}
				fmt.Fprintf(stdout, "%-10s %-18s %4d %12.6g %12.6g %12.6g %8.4f %6.2f %s\n", w, m, len(xs), q2, q1, q3, sp, b, verdict)
				continue
			}
			fmt.Fprintf(stdout, "%-10s %-18s %4d %12.6g %12.6g %12.6g %8.4f %6s %s\n", w, m, len(xs), q2, q1, q3, sp, "-", verdict)
		}
	}
	if failures > 0 {
		fmt.Fprintf(stdout, "%d runs failed\n", failures)
		return 1
	}
	return 0
}

// lastResult parses the result line a child run printed last.
func lastResult(out []byte) (result, error) {
	var res result
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) == 0 {
		return res, fmt.Errorf("no output")
	}
	return res, json.Unmarshal(lines[len(lines)-1], &res)
}

// readBounds returns each end-to-end metric's bound from the benchmark
// definition, or an empty map when the file is absent.
func readBounds(path string) map[string]float64 {
	out := map[string]float64{}
	data, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var def struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", path, err)
		return out
	}
	for _, m := range def.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
