package smtbalance

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/scenario"
)

// Scenario is a declarative, seeded generator of synthetic MPI jobs:
// where a Policy answers "how do I balance?", a Scenario answers "what
// imbalance am I balancing?".  The paper evaluates on a handful of
// hand-built cases (MetBench loads, BT-MZ, SIESTA); scenarios
// parameterize the *shape* of the imbalance instead — uniform, linear
// ramp, outlier rank, phase-shifted drift, deterministic bursts,
// bimodal compute/memory mixes — so any balancer can be characterized
// on any shape, at any topology, reproducibly.
//
// Name and Params identify the scenario exactly as a Policy's do: they
// feed ScenarioID, which labels evaluation-matrix rows and keys the
// matrix cell cache, so two scenarios that can generate different jobs
// must never share an identity, and Job must be a pure function of
// (identity, topology).
type Scenario interface {
	// Name is the scenario's registered shape name (e.g. "ramp").
	Name() string
	// Params returns the scenario's effective parameters (after
	// defaulting), e.g. {"skew": "4", "ranks": "0"}.  May be nil.
	Params() map[string]string
	// Job generates the scenario's job for a machine of the given
	// topology, deterministically.  A ranks parameter of 0 sizes the job
	// to the topology (one rank per hardware context).
	Job(topo Topology) (Job, error)
}

// ScenarioID is a scenario's canonical identity — its name plus its
// effective parameters sorted by key, e.g.
// "ramp(base=20000,iters=5,kind=fpu,ranks=0,skew=4)" — rendered exactly
// like PolicyID.  Equal IDs must mean equal generated jobs (per
// topology).  A nil scenario has the empty ID.
func ScenarioID(s Scenario) string {
	if s == nil {
		return ""
	}
	return idString(s.Name(), s.Params())
}

// ScenarioFactory builds a scenario from ParseScenario parameters.
// Factories must reject unknown keys, mirroring PolicyFactory.
type ScenarioFactory func(params map[string]string) (Scenario, error)

var scenarioRegistry = struct {
	sync.RWMutex
	m map[string]ScenarioFactory //mtlint:guardedby RWMutex
}{m: make(map[string]ScenarioFactory)}

// RegisterScenario adds a scenario factory under the given name, making
// it reachable from ParseScenario (and so from `mtbalance matrix
// -scenarios` and the serve API's scenario fields).  Names are
// case-sensitive, must be non-empty and free of the grammar's
// delimiters, and may not be registered twice.
func RegisterScenario(name string, factory ScenarioFactory) error {
	if name == "" || strings.ContainsAny(name, ",=; ") {
		return fmt.Errorf("smtbalance: invalid scenario name %q", name)
	}
	if factory == nil {
		return fmt.Errorf("smtbalance: nil factory for scenario %q", name)
	}
	scenarioRegistry.Lock()
	defer scenarioRegistry.Unlock()
	if _, dup := scenarioRegistry.m[name]; dup {
		return fmt.Errorf("smtbalance: scenario %q already registered", name)
	}
	scenarioRegistry.m[name] = factory
	return nil
}

// Scenarios lists the registered scenario names, sorted.
func Scenarios() []string {
	scenarioRegistry.RLock()
	defer scenarioRegistry.RUnlock()
	names := make([]string, 0, len(scenarioRegistry.m))
	for name := range scenarioRegistry.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ParseScenario resolves a scenario specification string with the same
// grammar ParsePolicy uses: a registered name followed by
// comma-separated key=value parameters, e.g. "uniform",
// "ramp,ranks=8,skew=1.5", "bursty,amp=3,seed=42".  Whitespace around
// tokens is ignored.  Unknown names and parameters are errors; an
// unknown name's error lists the registered scenarios.
func ParseScenario(s string) (Scenario, error) {
	name, params, err := parseSpec("scenario", s)
	if err != nil {
		return nil, err
	}
	scenarioRegistry.RLock()
	factory := scenarioRegistry.m[name]
	scenarioRegistry.RUnlock()
	if factory == nil {
		return nil, specErrorf("scenario", s, "smtbalance: unknown scenario %q (registered: %s)", name, strings.Join(Scenarios(), ", "))
	}
	sc, err := factory(params)
	if err != nil {
		return nil, specErrorf("scenario", s, "smtbalance: scenario %q: %w", name, err)
	}
	return sc, nil
}

// paramInt64 reads an int64 parameter, deleting it from the map, with
// the same explicit-range semantics as paramInt.
func paramInt64(params map[string]string, key string, def, min, max int64) (int64, error) {
	s, ok := params[key]
	if !ok {
		return def, nil
	}
	delete(params, key)
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q: want an integer", key, s)
	}
	if v < min || v > max {
		return 0, fmt.Errorf("parameter %s=%d outside %d..%d", key, v, min, max)
	}
	return v, nil
}

// paramUint reads a uint64 parameter (a PRNG seed), deleting it from
// the map.
func paramUint(params map[string]string, key string, def uint64) (uint64, error) {
	s, ok := params[key]
	if !ok {
		return def, nil
	}
	delete(params, key)
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q: want a non-negative integer", key, s)
	}
	return v, nil
}

// paramKind reads a kernel-kind parameter, validating it against the
// Compute kinds (Spin is not a kind a scenario may ask for: a spinning
// compute phase never terminates).
func paramKind(params map[string]string, key, def string) (string, error) {
	s, ok := params[key]
	if !ok {
		return def, nil
	}
	delete(params, key)
	for _, k := range KernelKinds() {
		if k == s {
			return s, nil
		}
	}
	return "", fmt.Errorf("parameter %s=%q: want one of %s", key, s, strings.Join(KernelKinds(), ", "))
}

// Bounds on scenario parameters: generous enough for any machine this
// simulator can express, tight enough that a typo cannot ask for a
// terabyte of phases.
const (
	maxScenarioRanks = 1 << 10
	maxScenarioIters = 1 << 12
	maxScenarioBase  = 1 << 32
)

// shapeScenario implements every built-in scenario shape over the
// internal/scenario load-matrix generators.
type shapeScenario struct {
	shape   string
	ranks   int    // 0 = one rank per hardware context of the topology
	iters   int    // compute+barrier iterations per rank
	base    int64  // base instructions per compute phase
	kind    string // workload kernel kind
	kind2   string // bimodal: the second (memory-side) kind
	skew    float64
	amp     float64
	seed    uint64
	period  int
	outlier int
}

// Built-in shape defaults.  base/iters are sized so the default
// evaluation matrix runs in seconds; skew 4 mirrors the paper's
// MetBench master/worker ratio (50000 vs 220000 instructions ≈ 4.4×).
const (
	defaultScenarioIters = 5
	defaultScenarioBase  = 20000
	defaultScenarioSkew  = 4
	defaultScenarioAmp   = 3
)

// commonParams parses the ranks/iters/base/kind quartet shared by every
// built-in shape, leaving shape-specific keys in the map.
func commonParams(params map[string]string) (sc shapeScenario, err error) {
	ranks, err := paramInt(params, "ranks", 0, 0, maxScenarioRanks)
	if err != nil {
		return sc, err
	}
	iters, err := paramInt(params, "iters", defaultScenarioIters, 1, maxScenarioIters)
	if err != nil {
		return sc, err
	}
	base, err := paramInt64(params, "base", defaultScenarioBase, 1, maxScenarioBase)
	if err != nil {
		return sc, err
	}
	kind, err := paramKind(params, "kind", "fpu")
	if err != nil {
		return sc, err
	}
	return shapeScenario{ranks: ranks, iters: iters, base: base, kind: kind}, nil
}

func init() {
	for name, factory := range map[string]ScenarioFactory{
		"uniform": func(params map[string]string) (Scenario, error) {
			sc, err := commonParams(params)
			if err != nil {
				return nil, err
			}
			sc.shape = "uniform"
			return &sc, rejectLeftovers(params)
		},
		"ramp": func(params map[string]string) (Scenario, error) {
			sc, err := commonParams(params)
			if err != nil {
				return nil, err
			}
			sc.shape = "ramp"
			if sc.skew, err = paramFloat(params, "skew", defaultScenarioSkew, 0, 1024); err != nil {
				return nil, err
			}
			return &sc, rejectLeftovers(params)
		},
		"step": func(params map[string]string) (Scenario, error) {
			sc, err := commonParams(params)
			if err != nil {
				return nil, err
			}
			sc.shape = "step"
			if sc.skew, err = paramFloat(params, "skew", defaultScenarioSkew, 0, 1024); err != nil {
				return nil, err
			}
			if sc.outlier, err = paramInt(params, "outlier", 0, 0, maxScenarioRanks-1); err != nil {
				return nil, err
			}
			return &sc, rejectLeftovers(params)
		},
		"phaseshift": func(params map[string]string) (Scenario, error) {
			sc, err := commonParams(params)
			if err != nil {
				return nil, err
			}
			sc.shape = "phaseshift"
			if sc.skew, err = paramFloat(params, "skew", defaultScenarioSkew, 0, 1024); err != nil {
				return nil, err
			}
			if sc.period, err = paramInt(params, "period", 2, 1, maxScenarioIters); err != nil {
				return nil, err
			}
			return &sc, rejectLeftovers(params)
		},
		"bursty": func(params map[string]string) (Scenario, error) {
			sc, err := commonParams(params)
			if err != nil {
				return nil, err
			}
			sc.shape = "bursty"
			if sc.amp, err = paramFloat(params, "amp", defaultScenarioAmp, 0, 1024); err != nil {
				return nil, err
			}
			if sc.seed, err = paramUint(params, "seed", 1); err != nil {
				return nil, err
			}
			return &sc, rejectLeftovers(params)
		},
		"bimodal": func(params map[string]string) (Scenario, error) {
			sc, err := commonParams(params)
			if err != nil {
				return nil, err
			}
			sc.shape = "bimodal"
			if sc.kind2, err = paramKind(params, "kind2", "mem"); err != nil {
				return nil, err
			}
			return &sc, rejectLeftovers(params)
		},
	} {
		if err := RegisterScenario(name, factory); err != nil {
			panic(err)
		}
	}
}

// Name implements Scenario.
func (s *shapeScenario) Name() string { return s.shape }

// Params implements Scenario: the effective common parameters plus the
// shape's own.
func (s *shapeScenario) Params() map[string]string {
	p := map[string]string{
		"ranks": strconv.Itoa(s.ranks),
		"iters": strconv.Itoa(s.iters),
		"base":  strconv.FormatInt(s.base, 10),
		"kind":  s.kind,
	}
	switch s.shape {
	case "ramp":
		p["skew"] = fmtFloat(s.skew)
	case "step":
		p["skew"] = fmtFloat(s.skew)
		p["outlier"] = strconv.Itoa(s.outlier)
	case "phaseshift":
		p["skew"] = fmtFloat(s.skew)
		p["period"] = strconv.Itoa(s.period)
	case "bursty":
		p["amp"] = fmtFloat(s.amp)
		p["seed"] = strconv.FormatUint(s.seed, 10)
	case "bimodal":
		p["kind2"] = s.kind2
	}
	return p
}

// loads generates the shape's rank × iteration instruction matrix.
func (s *shapeScenario) loads(ranks int) scenario.Loads {
	switch s.shape {
	case "ramp":
		return scenario.Ramp(ranks, s.iters, s.base, s.skew)
	case "step":
		return scenario.Step(ranks, s.iters, s.base, s.skew, s.outlier)
	case "phaseshift":
		return scenario.PhaseShift(ranks, s.iters, s.base, s.skew, s.period)
	case "bursty":
		return scenario.Bursty(ranks, s.iters, s.base, s.amp, s.seed)
	default: // uniform, bimodal
		return scenario.Uniform(ranks, s.iters, s.base)
	}
}

// Job implements Scenario: each rank runs iters compute+barrier
// iterations of the generated load matrix, composed from the
// internal/workload kernels.
func (s *shapeScenario) Job(topo Topology) (Job, error) {
	topo = topo.normalized()
	if err := topo.Validate(); err != nil {
		return Job{}, fmt.Errorf("smtbalance: scenario %s: %w", s.shape, err)
	}
	n := s.ranks
	if n == 0 {
		n = topo.Contexts()
	}
	if n < 2 || n%2 != 0 {
		return Job{}, fmt.Errorf("smtbalance: scenario %s needs an even rank count of at least 2 (ranks pair on SMT cores), got %d", s.shape, n)
	}
	if n > topo.Contexts() {
		return Job{}, fmt.Errorf("smtbalance: scenario %s asks for %d ranks, but the %s topology has only %d hardware contexts; grow the topology or lower ranks=",
			s.shape, n, topo, topo.Contexts())
	}
	loads := s.loads(n)
	job := Job{Name: ScenarioID(s)}
	for r := 0; r < n; r++ {
		kind := s.kind
		if s.shape == "bimodal" && r%2 == 1 {
			// Odd ranks run the memory-side kind: every core hosts one
			// compute-bound and one memory-bound rank, the mix where
			// SMT resource contention — not instruction counts — is the
			// imbalance.
			kind = s.kind2
		}
		prog := make([]Phase, 0, 2*s.iters)
		for i := 0; i < s.iters; i++ {
			prog = append(prog, Compute(kind, loads[r][i]), Barrier())
		}
		job.Ranks = append(job.Ranks, prog)
	}
	return job, nil
}
