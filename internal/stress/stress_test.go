package stress

import (
	"strings"
	"testing"
	"time"

	"acic/internal/core"
	"acic/internal/netsim"
)

func TestParseProfile(t *testing.T) {
	for _, p := range append(Profiles(), ProfileNone) {
		got, err := ParseProfile(string(p))
		if err != nil || got != p {
			t.Errorf("ParseProfile(%q) = (%v, %v)", p, got, err)
		}
	}
	if _, err := ParseProfile("bogus"); err == nil {
		t.Error("unknown profile accepted")
	}
}

// TestEnumerateDeterministic pins the replay contract: the same options
// must enumerate the identical run list — specs, order, and per-run seeds —
// because a printed "-run N" replay command depends on it.
func TestEnumerateDeterministic(t *testing.T) {
	opts := Options{Seed: 42, Rounds: 2, Short: true}
	a, b := enumerate(opts), enumerate(opts)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("spec %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Index != i {
			t.Errorf("spec %d has Index %d", i, a[i].Index)
		}
	}
	// Different master seeds must draw different per-run seeds.
	c := enumerate(Options{Seed: 43, Rounds: 2, Short: true})
	if c[0].Seed == a[0].Seed {
		t.Error("per-run seed did not change with master seed")
	}
}

// TestJitterDeterministicPerMessage checks the per-message independence the
// replay story needs: the delay assigned to the n-th message of a pair
// depends only on (seed, pair, n), not on the order in which other pairs'
// messages interleave with it.
func TestJitterDeterministicPerMessage(t *testing.T) {
	topo := topoByName("single4")
	for _, p := range Profiles() {
		j1 := NewJitter(p, 7, topo)
		j2 := NewJitter(p, 7, topo)
		base := 3 * time.Microsecond
		// Stream 1: pair (0,1) alone. Stream 2: pair (0,1) interleaved with
		// (2,3) traffic. Same per-pair delays must come out.
		var a, b []time.Duration
		for i := 0; i < 50; i++ {
			a = append(a, j1(0, 1, 1, base))
		}
		for i := 0; i < 50; i++ {
			b = append(b, j2(0, 1, 1, base))
			j2(2, 3, 1, base)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: message %d of pair (0,1) jittered differently under interleaving: %v vs %v", p, i, a[i], b[i])
				break
			}
		}
	}
}

// TestRunShortSmoke exercises the full short matrix once — every algorithm,
// every profile, oracle and conservation checks — as the suite-level
// guarantee that the harness itself stays runnable.
func TestRunShortSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("the short matrix still runs every algorithm; skip under -short")
	}
	rep, err := Run(Options{Seed: 1, Short: true, Timeout: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total == 0 {
		t.Fatal("no runs executed")
	}
	for _, f := range rep.Failures {
		t.Errorf("FAIL %s: %v", f.Spec, f.Err)
	}
}

// TestRunOnlySelectsSingleRun pins the -run replay path.
func TestRunOnlySelectsSingleRun(t *testing.T) {
	zero, huge := 0, 10_000
	rep, err := Run(Options{Seed: 1, Short: true, Only: &zero, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 1 {
		t.Errorf("Total = %d, want 1", rep.Total)
	}
	if _, err := Run(Options{Seed: 1, Short: true, Only: &huge}); err == nil {
		t.Error("out-of-range -run accepted")
	}
}

func TestRunRejectsBadProfile(t *testing.T) {
	if _, err := Run(Options{Seed: 1, Profiles: []Profile{"bogus"}}); err == nil {
		t.Error("bad profile accepted")
	}
}

func TestParseFault(t *testing.T) {
	for _, f := range append(Faults(), FaultNone) {
		got, err := ParseFault(string(f))
		if err != nil || got != f {
			t.Errorf("ParseFault(%q) = (%v, %v)", f, got, err)
		}
	}
	if _, err := ParseFault("bogus"); err == nil {
		t.Error("unknown fault accepted")
	}
}

// TestParseFaultRejectsRemovedProfiles pins that the profiles of the
// deleted reliability layer are refused by name, with an error that lists
// the profiles that remain, rather than parsed into a silent no-op: a
// replay line or CI stage still passing -fault drop, dup or lossy must
// fail loudly, and so must a matrix asked to run one.
func TestParseFaultRejectsRemovedProfiles(t *testing.T) {
	for _, name := range []string{"drop", "dup", "lossy"} {
		t.Run(name, func(t *testing.T) {
			_, err := ParseFault(name)
			if err == nil {
				t.Fatalf("ParseFault(%q) accepted a removed profile", name)
			}
			if !strings.Contains(err.Error(), "none, reorder") {
				t.Errorf("ParseFault(%q) error %q does not list the remaining profiles", name, err)
			}
			if _, err := Run(Options{Seed: 1, Short: true, Faults: []Fault{Fault(name)}}); err == nil {
				t.Errorf("Run accepted fault %q", name)
			}
		})
	}
}

func TestRunRejectsBadFault(t *testing.T) {
	if _, err := Run(Options{Seed: 1, Faults: []Fault{"bogus"}}); err == nil {
		t.Error("bad fault accepted")
	}
}

// TestFaultMatrixEnumeration pins the fault sub-matrix's shape: fault runs
// are acic-only, carry a named fault in their String (the replay breadcrumb),
// and Faults: []Fault{FaultNone} disables the sub-matrix without disturbing
// the classic specs' indices or seeds.
func TestFaultMatrixEnumeration(t *testing.T) {
	// Churn off: this test pins the fault sub-matrix as the enumeration's
	// suffix; the churn sub-matrix rides after it and has its own test.
	with := enumerate(Options{Seed: 42, Short: true, Churn: ChurnOff})
	without := enumerate(Options{Seed: 42, Short: true, Churn: ChurnOff, Faults: []Fault{FaultNone}})
	if len(with) <= len(without) {
		t.Fatalf("fault sub-matrix added no runs: %d vs %d", len(with), len(without))
	}
	for i := range without {
		if with[i] != without[i] {
			t.Fatalf("classic spec %d disturbed by fault sub-matrix: %+v vs %+v", i, with[i], without[i])
		}
	}
	seen := map[Fault]bool{}
	for _, s := range with[len(without):] {
		if s.Algo != "acic" {
			t.Errorf("fault run for non-acic algo: %+v", s)
		}
		if !s.faulted() {
			t.Errorf("fault sub-matrix spec without a fault: %+v", s)
		}
		if !strings.Contains(s.String(), "fault="+string(s.Fault)) {
			t.Errorf("Spec.String misses the fault: %s", s)
		}
		seen[s.Fault] = true
	}
	for _, f := range Faults() {
		if !seen[f] {
			t.Errorf("short fault sub-matrix never enumerates %s", f)
		}
	}
}

// TestTCPMatrixEnumeration pins the TCP sub-matrix's shape: every sockfab
// spec is acic-only, jitter- and fault-free, labels its fabric in String()
// (the replay breadcrumb), and is immediately preceded by the identical
// shape on the simulated fabric — the same-spec-on-both-fabrics contract.
func TestTCPMatrixEnumeration(t *testing.T) {
	specs := enumerate(Options{Seed: 42, Short: true, Churn: ChurnOff})
	var tcp []Spec
	for i, s := range specs {
		if s.Fabric == "" {
			continue
		}
		if s.Fabric != "tcp" {
			t.Fatalf("unknown fabric %q in %+v", s.Fabric, s)
		}
		tcp = append(tcp, s)
		if s.Algo != "acic" || s.Profile != ProfileNone || s.faulted() {
			t.Errorf("tcp spec with sim-only knobs: %+v", s)
		}
		if !strings.Contains(s.String(), "fabric=tcp") {
			t.Errorf("Spec.String misses the fabric: %s", s)
		}
		if i == 0 {
			t.Fatalf("tcp spec %+v has no netsim twin before it", s)
		}
		twin := specs[i-1]
		if twin.Fabric != "" || twin.Algo != s.Algo || twin.Graph != s.Graph ||
			twin.Topo != s.Topo || twin.Profile != s.Profile || twin.Fault != s.Fault {
			t.Errorf("tcp spec %+v not paired with a netsim twin (%+v)", s, twin)
		}
	}
	if len(tcp) == 0 {
		t.Fatal("short matrix enumerates no tcp specs")
	}
	seenMulti := false
	for _, s := range tcp {
		if topoByName(s.Topo).TotalProcs() > 1 {
			seenMulti = true
		}
	}
	if !seenMulti {
		t.Error("no tcp spec spans multiple processes")
	}
}

// TestTCPRunSmoke executes one sockfab run end to end through the harness:
// the spec's netsim twin ran in the short smoke, so a green pair is the
// same-spec-on-both-fabrics guarantee.
func TestTCPRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full TCP mesh")
	}
	specs := enumerate(Options{Seed: 1, Short: true, Churn: ChurnOff})
	idx := -1
	for _, s := range specs {
		if s.Fabric == "tcp" {
			idx = s.Index
			break
		}
	}
	if idx < 0 {
		t.Fatal("no tcp spec in the short matrix")
	}
	rep, err := Run(Options{Seed: 1, Short: true, Churn: ChurnOff, Only: &idx, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 1 || len(rep.Failures) != 0 {
		t.Fatalf("tcp run: total %d failures %v", rep.Total, rep.Failures)
	}
}

// TestChurnMatrixEnumeration pins the churn sub-matrix's shape: ChurnOn
// appends churn specs after the classic+fault matrix without disturbing
// their indices or seeds, ChurnOff removes exactly those specs, and
// ChurnOnly enumerates nothing else.
func TestChurnMatrixEnumeration(t *testing.T) {
	on := enumerate(Options{Seed: 42, Short: true})
	off := enumerate(Options{Seed: 42, Short: true, Churn: ChurnOff})
	only := enumerate(Options{Seed: 42, Short: true, Churn: ChurnOnly})
	if len(on) != len(off)+len(only) {
		t.Fatalf("matrix sizes: on=%d off=%d only=%d", len(on), len(off), len(only))
	}
	for i := range off {
		if on[i] != off[i] {
			t.Fatalf("classic spec %d disturbed by churn sub-matrix: %+v vs %+v", i, on[i], off[i])
		}
	}
	for _, s := range on[len(off):] {
		if s.Algo != "churn" {
			t.Errorf("churn suffix contains non-churn spec: %+v", s)
		}
		if s.Profile != ProfileNone || s.faulted() {
			t.Errorf("churn spec with jitter or faults: %+v", s)
		}
	}
	for _, s := range only {
		if s.Algo != "churn" {
			t.Errorf("ChurnOnly enumerated %+v", s)
		}
	}
	if _, err := Run(Options{Seed: 1, Churn: "bogus"}); err == nil {
		t.Error("bad churn mode accepted")
	}
}

// TestChurnRunSmoke executes one churn run end to end through the harness.
func TestChurnRunSmoke(t *testing.T) {
	only := 0
	rep, err := Run(Options{Seed: 3, Short: true, Churn: ChurnOnly, Only: &only})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 1 || len(rep.Failures) != 0 {
		t.Fatalf("churn run: total %d failures %v", rep.Total, rep.Failures)
	}
}

// TestFaultPlanDeterministic checks the replay property of fault decisions:
// the fate of the n-th send of a pair depends only on (seed, pair, n), not
// on interleaving with other pairs' traffic.
func TestFaultPlanDeterministic(t *testing.T) {
	topo := topoByName("single4")
	for _, f := range Faults() {
		p1 := NewFaultPlan(f, 7, topo)
		p2 := NewFaultPlan(f, 7, topo)
		probe := func(p netsim.FaultPlan, interleave bool) []bool {
			var fates []bool
			for i := 0; i < 400; i++ {
				_, hit := p.Reorder(0, 1, 1)
				fates = append(fates, hit)
				if interleave {
					p.Reorder(2, 3, 1)
				}
			}
			return fates
		}
		a, b := probe(p1, false), probe(p2, true)
		hits := 0
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: send %d of pair (0,1) fated differently under interleaving", f, i)
			}
			if a[i] {
				hits++
			}
		}
		if hits == 0 {
			t.Errorf("%s: 400 sends produced no fault decisions — rate too low to stress anything", f)
		}
	}
	if !NewFaultPlan(FaultNone, 7, topo).Empty() {
		t.Error("FaultNone produced a non-empty plan")
	}
}

// TestAcicOptionsPerSpecShape checks the one builder runSpec and the
// artifact replay share for acic's core.Options, on a real spec of each
// shape the matrix enumerates: a TCP spec carries none of the simulated
// fabric's knobs (core refuses them over sockets), and a simulated spec
// carries the default latency model, its profile's jitter hook exactly
// when it has a profile, and a reorder plan exactly when it is faulted.
// No spec may carry a drop filter: loss has no cell in the matrix.
func TestAcicOptionsPerSpecShape(t *testing.T) {
	specs := enumerate(Options{Seed: 1, Churn: ChurnOff})
	for _, tc := range []struct {
		name  string
		match func(Spec) bool
	}{
		{"simulated", func(s Spec) bool { return s.Fabric == "" && s.Profile == ProfileNone && !s.faulted() }},
		{"simulated/jittered", func(s Spec) bool { return s.Fabric == "" && s.Profile != ProfileNone && !s.faulted() }},
		{"simulated/reorder", func(s Spec) bool { return s.Fabric == "" && s.Fault == FaultReorder }},
		{"tcp", func(s Spec) bool { return s.Fabric == "tcp" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			found := 0
			for _, spec := range specs {
				if spec.Algo != "acic" || !tc.match(spec) {
					continue
				}
				found++
				topo, _, _, jit, fp := specInputs(spec, true)
				opts := acicOptions(spec, topo, jit, fp)
				if opts.Topo != topo {
					t.Errorf("%v: Topo = %+v, want %+v", spec, opts.Topo, topo)
				}
				if opts.Fault.Drop != nil {
					t.Errorf("%v: a drop filter is installed", spec)
				}
				if spec.Fabric == "tcp" {
					if opts.Transport != core.TransportTCP || opts.Latency != (netsim.LatencyModel{}) ||
						opts.Jitter != nil || !opts.Fault.Empty() {
						t.Errorf("%v: TCP options carry simulated-fabric knobs: %+v", spec, opts)
					}
					continue
				}
				if opts.Transport != core.TransportSim {
					t.Errorf("%v: Transport = %v, want TransportSim", spec, opts.Transport)
				}
				if opts.Latency != netsim.DefaultLatency() {
					t.Errorf("%v: Latency = %+v, want the default model", spec, opts.Latency)
				}
				if (opts.Jitter != nil) != (spec.Profile != ProfileNone) {
					t.Errorf("%v: jitter hook installed = %v", spec, opts.Jitter != nil)
				}
				if (opts.Fault.Reorder != nil) != spec.faulted() {
					t.Errorf("%v: reorder filter installed = %v", spec, opts.Fault.Reorder != nil)
				}
			}
			if found == 0 {
				t.Fatal("the matrix enumerates no acic spec of this shape")
			}
		})
	}
}
