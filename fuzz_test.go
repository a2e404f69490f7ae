package smtbalance

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// FuzzTopology fuzzes the topology flag syntax: any string that parses
// must be a valid machine whose CPU numbering round-trips, whose String
// re-parses to the same value, and whose PinInOrder boundary sits
// exactly at the context count.
func FuzzTopology(f *testing.F) {
	for _, s := range []string{
		"1x2x2", "2x2x2", "4x8x2", " 2 X 2 X 2 ", "64x64x2",
		"0x2x2", "2x2x4", "-1x2x2", "2x2", "2x2x2x2", "axbxc", "", "x", "1×2×2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		topo, err := ParseTopology(s)
		if err != nil {
			return // rejected input: nothing more to check
		}
		if verr := topo.Validate(); verr != nil {
			t.Fatalf("ParseTopology(%q) returned invalid topology %v: %v", s, topo, verr)
		}
		round, err := ParseTopology(topo.String())
		if err != nil || round != topo {
			t.Fatalf("topology %v does not round-trip through %q: %v, %v", topo, topo.String(), round, err)
		}
		for cpu := 0; cpu < topo.Contexts(); cpu++ {
			chip, core, ctx := topo.Locate(cpu)
			back, err := topo.CPUOf(chip, core, ctx)
			if err != nil {
				t.Fatalf("%v: Locate(%d) = (%d,%d,%d) rejected by CPUOf: %v", topo, cpu, chip, core, ctx, err)
			}
			if back != cpu {
				t.Fatalf("%v: CPU %d round-trips to %d via (%d,%d,%d)", topo, cpu, back, chip, core, ctx)
			}
		}
		if _, err := topo.PinInOrder(topo.Contexts()); err != nil {
			t.Fatalf("%v: PinInOrder at full occupancy rejected: %v", topo, err)
		}
		if _, err := topo.PinInOrder(topo.Contexts() + 1); err == nil {
			t.Fatalf("%v: PinInOrder past the context count accepted", topo)
		}
	})
}

// FuzzParsePlacement fuzzes the -pin placement syntax against fuzzed
// topologies: any (topology, placement) pair that parses must satisfy
// the placement invariants — equal-length maps, distinct in-range CPUs,
// valid priorities — and pass the same validation Run applies.
func FuzzParsePlacement(f *testing.F) {
	f.Add("1x2x2", "0.0.0@4,0.0.1@6,0.1.0,0.1.1")
	f.Add("2x2x2", "0.0.0,1.1.1@2")
	f.Add("2x2x2", "1.0.0@7")
	f.Add("1x2x2", "0.0.0,0.0.0")
	f.Add("1x2x2", "0.0")
	f.Add("1x2x2", "9.9.9@9")
	f.Add("bogus", "0.0.0@4")
	f.Add("4x1x2", " 3 . 0 . 1 @ 5 ,0.0.0")
	f.Add("1x2x2", "")
	f.Fuzz(func(t *testing.T, topoStr, plStr string) {
		topo, err := ParseTopology(topoStr)
		if err != nil {
			topo = DefaultTopology() // the CLI rejects earlier; parse against the default instead
		}
		pl, err := ParsePlacement(topo, plStr)
		if err != nil {
			return
		}
		if len(pl.CPU) != len(pl.Priority) || len(pl.CPU) == 0 {
			t.Fatalf("ParsePlacement(%q, %q) returned unbalanced placement %+v", topoStr, plStr, pl)
		}
		if want := strings.Count(plStr, ",") + 1; len(pl.CPU) != want {
			t.Fatalf("ParsePlacement(%q) placed %d ranks from %d entries", plStr, len(pl.CPU), want)
		}
		seen := map[int]bool{}
		for r, cpu := range pl.CPU {
			if cpu < 0 || cpu >= topo.Contexts() {
				t.Fatalf("rank %d on CPU %d outside topology %v", r, cpu, topo)
			}
			if seen[cpu] {
				t.Fatalf("CPU %d pinned twice by %q", cpu, plStr)
			}
			seen[cpu] = true
			if !pl.Priority[r].Valid() {
				t.Fatalf("rank %d has invalid priority %d", r, pl.Priority[r])
			}
		}
		if err := pl.validate(Topology{Chips: topo.Chips, CoresPerChip: topo.CoresPerChip, SMTWays: topo.SMTWays}); err != nil {
			t.Fatalf("parsed placement fails Run validation: %v", err)
		}
		if _, err := pl.inner(); err != nil {
			t.Fatalf("parsed placement fails priority conversion: %v", err)
		}
	})
}

// FuzzParseScenario fuzzes the scenario specification grammar: any spec
// that parses must yield a canonical identity that round-trips through
// the grammar, and a generator that either errors descriptively or
// produces a well-formed job, deterministically.
func FuzzParseScenario(f *testing.F) {
	for _, s := range []string{
		"uniform", "ramp,ranks=8,skew=1.5", "step,skew=5,outlier=2",
		"phaseshift,period=3", "bursty,amp=3,seed=42", "bimodal,kind2=l2",
		"ramp, skew = 2 , base = 7000", "uniform,ranks=3", "uniform,kind=spin",
		"warp", "", "ramp,skew", "ramp,skew=0", "uniform,iters=999999",
		"bursty,seed=-1", "uniform,ranks=0,iters=1,base=1",
	} {
		f.Add(s)
	}
	topo := Topology{Chips: 2, CoresPerChip: 2, SMTWays: 2}
	f.Fuzz(func(t *testing.T, s string) {
		sc, err := ParseScenario(s)
		if err != nil {
			return // rejected input: nothing more to check
		}
		id := ScenarioID(sc)
		if id == "" {
			t.Fatalf("ParseScenario(%q) yielded an empty identity", s)
		}
		// The identity round-trips through the spec grammar: rebuilding
		// "name,k=v,..." from Name+Params re-parses to the same identity.
		parts := []string{sc.Name()}
		for k, v := range sc.Params() {
			parts = append(parts, k+"="+v)
		}
		round, err := ParseScenario(strings.Join(parts, ","))
		if err != nil {
			t.Fatalf("effective parameters of %q do not re-parse: %v", s, err)
		}
		if ScenarioID(round) != id {
			t.Fatalf("identity of %q does not round-trip: %q vs %q", s, ScenarioID(round), id)
		}
		// Generation is total (no panics), deterministic, and any job it
		// yields is well-formed for its topology.
		job, err := sc.Job(topo)
		if err != nil {
			return
		}
		again, err := sc.Job(topo)
		if err != nil || !reflect.DeepEqual(job, again) {
			t.Fatalf("generation of %q is not deterministic (%v)", s, err)
		}
		if len(job.Ranks) == 0 || len(job.Ranks)%2 != 0 || len(job.Ranks) > topo.Contexts() {
			t.Fatalf("generated job has %d ranks on %s", len(job.Ranks), topo)
		}
		for r, prog := range job.Ranks {
			if len(prog) == 0 {
				t.Fatalf("rank %d has no phases", r)
			}
		}
	})
}

// FuzzDecodeResult fuzzes the disk record of a Result, which can come
// from a shared cache directory: every input either decodes into a
// Result that clones, renders, exports and re-encodes to a record that
// decodes to the same bytes again, or is rejected with a *recordError —
// never a panic.
func FuzzDecodeResult(f *testing.F) {
	res, err := testMachine(f, &Options{NoOSNoise: true}).Run(f.Context(), sweepTestJob(1500, 6000), PinInOrder(4))
	if err != nil {
		f.Fatal(err)
	}
	good, ok := encodeResult(res)
	if !ok {
		f.Fatal("a traced result is not persistable")
	}
	f.Add(good)
	for _, s := range []string{
		`{"seconds":1,"cycles":10,"ranks":[{"cpu":0}],"trace_end":10,"trace":[[{"s":0,"f":0,"t":4},{"s":2,"f":4,"t":10}]]}`,
		`{"seconds":1,"cycles":10,"ranks":[],"trace_end":5,"trace":[[{"s":1,"f":0,"t":9}]]}`,
		`{"trace_end":-1,"trace":[[]]}`,
		`{"trace_end":3,"trace":[[{"s":200,"f":0,"t":1}]]}`,
		`{"trace_end":3,"trace":[]}`,
		`{"ranks":[{"cpu":-7,"priority":99}],"trace_end":0,"trace":[[],[]]}`,
		`{`, `null`, `[]`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeResult(data)
		if err != nil {
			var re *recordError
			if !errors.As(err, &re) {
				t.Fatalf("decodeResult rejected %q with untyped %T: %v", data, err, err)
			}
			return
		}
		got = got.clone()
		got.Timeline(40)
		if err := got.WriteTraceCSV(io.Discard); err != nil {
			t.Fatalf("decoded record does not export as CSV: %v", err)
		}
		if err := got.WriteParaver(io.Discard); err != nil {
			t.Fatalf("decoded record does not export as Paraver: %v", err)
		}
		enc, ok := encodeResult(got)
		if !ok {
			t.Fatalf("decoded record %q is not persistable", data)
		}
		again, err := decodeResult(enc)
		if err != nil {
			t.Fatalf("re-encoded record %q does not decode: %v", enc, err)
		}
		if enc2, _ := encodeResult(again); !bytes.Equal(enc, enc2) {
			t.Fatalf("record does not round-trip:\n%s\n%s", enc, enc2)
		}
	})
}

// FuzzDecodeMetrics fuzzes the disk record of a sweep point: every input
// either decodes into metrics that round-trip through encodeMetrics, or
// is rejected with a *recordError — never a panic.
func FuzzDecodeMetrics(f *testing.F) {
	for _, s := range []string{
		`{"cycles":123456,"seconds":7.5e-05,"imbalance_pct":12.25}`,
		`{"cycles":-1,"seconds":-0,"imbalance_pct":1e308}`,
		`{"cycles":1e30}`, `{"seconds":"x"}`, `{`, `null`, `[1]`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeMetrics(data)
		if err != nil {
			var re *recordError
			if !errors.As(err, &re) {
				t.Fatalf("decodeMetrics rejected %q with untyped %T: %v", data, err, err)
			}
			return
		}
		back, err := decodeMetrics(encodeMetrics(m))
		if err != nil || back != m {
			t.Fatalf("metrics %+v do not round-trip: %+v, %v", m, back, err)
		}
	})
}

// FuzzParsePolicy fuzzes the policy specification grammar: every input
// either resolves to a policy whose canonical ID re-parses to the same
// ID, or is rejected with a *SpecError naming the input — never a
// panic.
func FuzzParsePolicy(f *testing.F) {
	for _, s := range []string{
		"static", "dyn", "dyn,maxdiff=2", "hier,maxdiff=3,hysteresis=2",
		"feedback,gain=8,deadband=0.02", " dyn , maxdiff = 1 ", "greedy,maxdiff=2",
		"dyn2", "", ",", "dyn,maxdiff", "dyn,maxdiff=9", "dyn,maxdiff=1,maxdiff=2",
		"feedback,gain=NaN", "feedback,deadband=-1", "static,bogus=1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		pol, err := ParsePolicy(s)
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) || se.Registry != "policy" || se.Spec != s {
				t.Fatalf("ParsePolicy(%q) rejected with %T %+v, want a *SpecError for it", s, err, err)
			}
			return
		}
		// The effective parameters, spelled out, resolve to the same
		// policy.
		id, spec := PolicyID(pol), pol.Name()
		for k, v := range pol.Params() {
			spec += "," + k + "=" + v
		}
		back, err := ParsePolicy(spec)
		if err != nil {
			t.Fatalf("ParsePolicy(%q) = %q, whose parameters %q do not re-parse: %v", s, id, spec, err)
		}
		if PolicyID(back) != id {
			t.Fatalf("ParsePolicy(%q) = %q re-parses to %q", s, id, PolicyID(back))
		}
	})
}
