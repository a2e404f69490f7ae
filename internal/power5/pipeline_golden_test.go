package power5

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hwpri"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/workload"
)

// update regenerates testdata/pipeline.golden:
//
//	go test ./internal/power5 -run TestPipelineGolden -update
var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// pipelineCycles is the length of each pinned run.
const pipelineCycles = 20000

// pipelineMix installs one kernel mix on a chip whose core 0 runs the
// priority pair (a, b) and whose core 1 runs the mirrored pair (b, a).
type pipelineMix struct {
	name    string
	install func(ch *Chip)
}

// orNopPrelude is a short supervisor-level instruction sequence that
// walks core 1's thread 0 through several priorities before its main
// kernel: or-nops are the one in-stream way a context changes its own
// decode allocation mid-run.
func orNopPrelude() *isa.SliceStream {
	var ins []isa.Instr
	for _, p := range []uint8{6, 1, 5, 3, 9, 2, 4} {
		for i := 0; i < 40; i++ {
			ins = append(ins, isa.Instr{Op: isa.FX, Dep: 1})
		}
		ins = append(ins, isa.Instr{Op: isa.OrNop, Pri: p})
	}
	return isa.NewSliceStream(ins)
}

var pipelineMixes = []pipelineMix{
	{"dense", func(ch *Chip) {
		ch.SetStream(0, 0, workload.Load{Kind: workload.Mixed, N: 1 << 62, Seed: 1}.Stream())
		ch.SetStream(0, 1, workload.Load{Kind: workload.FPU, N: 1 << 62, Seed: 2, Base: 1 << 32}.Stream())
		ch.SetStream(1, 0, workload.Load{Kind: workload.Mem, N: 1 << 62, Seed: 3, Base: 2 << 32}.Stream())
		ch.SetStream(1, 1, workload.Load{Kind: workload.Branchy, N: 1 << 62, Seed: 4, Base: 3 << 32}.Stream())
	}},
	{"odd", func(ch *Chip) {
		// Footprints below one 8-byte step and not a multiple of it,
		// finite loads that run dry mid-run, and an or-nop prelude.
		ch.SetStream(0, 0, workload.Load{Kind: workload.L1, N: 1 << 62, Footprint: 5, Seed: 5}.Stream())
		ch.SetStream(0, 1, workload.Load{Kind: workload.L2, N: 30000, Footprint: 3005, Seed: 6, Base: 1 << 32}.Stream())
		ch.SetPrivilege(1, 0, hwpri.Supervisor)
		ch.SetStream(1, 0, isa.Concat(orNopPrelude(),
			workload.Load{Kind: workload.Mem, N: 1 << 62, Footprint: 12345, Seed: 7, Base: 2 << 32}.Stream()))
		ch.SetStream(1, 1, workload.Load{Kind: workload.FXU, N: 5000, Footprint: 1 << 10, Seed: 8, Base: 3 << 32}.Stream())
	}},
}

func writeCacheStats(b *strings.Builder, name string, s mem.Stats) {
	fmt.Fprintf(b, " %s=%d/%d", name, s.Accesses, s.Misses)
}

// pipelineReport runs every ordered priority pair on every mix and
// renders each context's counters and each cache level's statistics,
// one line per run.
func pipelineReport() string {
	var b strings.Builder
	for _, mix := range pipelineMixes {
		for a := hwpri.ThreadOff; a <= hwpri.VeryHigh; a++ {
			for p := hwpri.ThreadOff; p <= hwpri.VeryHigh; p++ {
				ch := MustNew(DefaultConfig())
				ch.SetPriority(0, 0, a)
				ch.SetPriority(0, 1, p)
				ch.SetPriority(1, 0, p)
				ch.SetPriority(1, 1, a)
				mix.install(ch)
				ch.Run(pipelineCycles)
				fmt.Fprintf(&b, "%s %d/%d cycles=%d", mix.name, a, p, ch.Cycle())
				for c := 0; c < 2; c++ {
					for t := 0; t < 2; t++ {
						s := ch.Stats(c, t)
						fmt.Fprintf(&b, " c%dt%d=%d,%d,%d,%d,%d,%d", c, t,
							s.Decoded, s.Completed, s.DecodeCycles, s.Mispredicts, s.L1Misses, s.PrioritySets)
					}
				}
				h := ch.Hierarchy()
				writeCacheStats(&b, "L1a", h.L1(0).Stats())
				writeCacheStats(&b, "L1b", h.L1(1).Stats())
				writeCacheStats(&b, "L2", h.L2().Stats())
				writeCacheStats(&b, "L3", h.L3().Stats())
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// TestPipelineGolden pins the cycle loop's observable behaviour — every
// context's counters and every cache level's statistics — over all 64
// ordered priority pairs, which between them drive the shared,
// throttled, power-save, leftover and single-thread decode modes, on two
// kernel mixes.  Any change to complete, issue, decode or the
// instruction supply that is meant to be a pure speedup must leave this
// file byte-identical.
func TestPipelineGolden(t *testing.T) {
	got := pipelineReport()
	path := filepath.Join("testdata", "pipeline.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/power5 -run TestPipelineGolden -update` to create)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("pipeline drifted from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("pipeline drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
