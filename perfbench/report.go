package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a -trace 0 run prints, on every workload.
// BENCHMARK.json declares the same names and units (the self-test
// checks that they agree).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_s", "s"},
	{"op_p90_s", "s"},
	{"ops_per_s", "1/s"},
	{"ok_frac", "frac"},
	{"faults_per_op", "count"},
	{"heap_live_mb", "MB"},
}

// perLayer lists the metrics a -trace 1 run prints. Times and counts
// are per verified op of the traced phase unless the name says
// otherwise; a layer the workload never reaches reports 0.
var perLayer = []metricDef{
	{"core.encode_s", "s"},
	{"template.encode_s", "s"},
	{"core.instantiate_s", "s"},
	{"sat.load_s", "s"},
	{"core.solve_s", "s"},
	{"core.solve_calls", "count"},
	{"core.candidates", "count"},
	{"core.decode_s", "s"},
	{"core.accounted_frac", "frac"},
	{"sat.conflicts", "count"},
	{"sat.propagations", "count"},
	{"sat.conflicts_per_s", "1/s"},
	{"sat.props_per_s", "1/s"},
	{"service.submit_s", "s"},
	{"service.poll_s", "s"},
	{"service.queue_wait_s", "s"},
	{"service.attempt_s", "s"},
	{"service.overhead_s", "s"},
	{"trace.overhead_frac", "frac"},
}

// tailQuantile is the latency percentile op_p90_s reports: the highest
// with ten samples beyond it in the ~190 jobs a service-refute run
// completes.
const tailQuantile = 0.90

// opResult is the outcome of one timed op.
type opResult struct {
	idx     int
	ok      bool // the answer was checked and is right
	latency time.Duration
	faults  int     // fault observations the op consumed
	heapMB  float64 // live heap per campaign after its round (attack-kp512)
	fp      string  // work fingerprint: counts that repeat exactly per seed
	note    string  // why the op failed, if it did
	// layers carries per-layer values (seconds or counts) of this op.
	layers map[string]float64
	// job and solveCall are the afad job ID and its reported
	// SolveContext time (service-refute only).
	job       string
	solveCall time.Duration
}

// report collects the metrics of one run.
type report struct {
	attempted, failed int
	correct           bool
	end, layer        map[string]float64
}

func newReport() *report {
	return &report{correct: true, end: map[string]float64{}, layer: map[string]float64{}}
}

// result renders the final JSON line. Every declared metric must be
// present: a missing one is a benchmark bug, not a measurement.
func (r *report) result(traced bool) ([]byte, error) {
	defs, vals := endToEnd, r.end
	if traced {
		defs, vals = perLayer, r.layer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		ms[d.name] = metric{v, d.unit}
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct && r.failed == 0, r.attempted, r.failed, ms})
}

// phase is one timed closed-loop phase.
type phase struct {
	results []opResult // in op order
	elapsed time.Duration
}

func (p phase) okLatencies() []float64 {
	var out []float64
	for _, r := range p.results {
		if r.ok {
			out = append(out, r.latency.Seconds())
		}
	}
	return out
}

// endMetrics fills the latency, throughput and correctness metrics of
// an untraced phase. A failed op is never timed as a success: it is
// left out of the latencies and the throughput and counted in failed.
func (r *report) endMetrics(p phase) {
	lats := p.okLatencies()
	faults := 0
	for _, res := range p.results {
		if res.ok {
			faults += res.faults
		}
	}
	r.end["op_s"] = quantile(lats, 0.5)
	r.end["op_p90_s"] = quantile(lats, tailQuantile)
	r.end["ops_per_s"] = float64(len(lats)) / p.elapsed.Seconds()
	r.end["ok_frac"] = float64(len(lats)) / float64(len(p.results))
	r.end["faults_per_op"] = float64(faults) / math.Max(1, float64(len(lats)))
}

// count adds a phase's ops to the run's attempted/failed totals.
func (r *report) count(p phase) {
	r.attempted += len(p.results)
	for _, res := range p.results {
		if !res.ok {
			r.failed++
		}
	}
}

// layerMeans averages every per-layer value over the verified ops of
// a traced phase and stores the means under their metric names.
func (r *report) layerMeans(p phase) {
	n := 0
	sums := map[string]float64{}
	for _, res := range p.results {
		if !res.ok {
			continue
		}
		n++
		for k, v := range res.layers {
			sums[k] += v
		}
	}
	for _, d := range perLayer {
		if _, set := r.layer[d.name]; !set {
			r.layer[d.name] = 0
		}
	}
	if n == 0 {
		return
	}
	for k, v := range sums {
		r.layer[k] = v / float64(n)
	}
	if s := sums["core.solve_s"]; s > 0 {
		r.layer["sat.conflicts_per_s"] = sums["sat.conflicts"] / s
		r.layer["sat.props_per_s"] = sums["sat.propagations"] / s
	}
}

// compareWork checks that the traced phase did exactly the work of the
// untraced one on the ops both completed, and records the tracing
// overhead as the ratio of their median latencies over those ops.
func (r *report) compareWork(w io.Writer, plain, traced phase) {
	n := min(len(plain.results), len(traced.results))
	match := n > 0
	var plainLat, tracedLat []float64
	for i := 0; i < n; i++ {
		p, t := plain.results[i], traced.results[i]
		if p.fp != t.fp {
			match = false
			fmt.Fprintf(w, "# work mismatch op %d: untraced %q traced %q\n", i, p.fp, t.fp)
		}
		if p.ok && t.ok {
			plainLat = append(plainLat, p.latency.Seconds())
			tracedLat = append(tracedLat, t.latency.Seconds())
		}
	}
	fmt.Fprintf(w, "# trace work match: %v over %d common ops (untraced digest %s, traced digest %s)\n",
		match, n, workDigest(plain.results[:n]), workDigest(traced.results[:n]))
	if !match {
		r.correct = false
	}
	r.layer["trace.overhead_frac"] = 0
	if len(plainLat) > 0 {
		r.layer["trace.overhead_frac"] = quantile(tracedLat, 0.5)/quantile(plainLat, 0.5) - 1
	}
}

// printOps writes one fingerprint line per op and the digest of them
// all: two runs of the same code and seed must print the same work.
func printOps(w io.Writer, label string, p phase) {
	for _, res := range p.results {
		status := "ok"
		if !res.ok {
			status = "FAILED " + res.note
		}
		fmt.Fprintf(w, "# %s op %d %.4fs %s | %s\n", label, res.idx, res.latency.Seconds(), res.fp, status)
	}
	fmt.Fprintf(w, "# %s ops=%d elapsed=%.3fs work_digest=%s\n", label, len(p.results), p.elapsed.Seconds(), workDigest(p.results))
}

// workDigest hashes the op-ordered fingerprints.
func workDigest(rs []opResult) string {
	h := sha256.New()
	for _, r := range rs {
		fmt.Fprintf(h, "%d %s\n", r.idx, r.fp)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// medianDuration returns the median of ds in seconds.
func medianDuration(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return quantile(xs, 0.5)
}

// liveHeapMB runs a full garbage collection and returns the heap the
// process still reaches: the memory its live objects hold, free of the
// GC-timing noise of peak RSS.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// opSeed derives the input seed of op i (i < 0 for warm-up ops) from
// the workload seed with a splitmix64 step, so neighbouring workload
// seeds give unrelated inputs.
func opSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(int64(i))
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}
