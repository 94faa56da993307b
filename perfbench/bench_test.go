package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// lastJSON decodes the result line a run prints last.
func lastJSON(t *testing.T, out string) (res struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return res
}

// checkMetrics requires exactly the declared metrics, each with its
// unit, and returns whether the run reported itself correct.
func checkMetrics(t *testing.T, out string, defs []metricDef) bool {
	t.Helper()
	res := lastJSON(t, out)
	if len(res.Metrics) != len(defs) {
		t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", d.name, m, ok, d.unit)
		}
	}
	return res.Correct && res.Attempted >= 1 && res.Failed == 0
}

// TestBenchmarkJSONDeclaresPrintedMetrics keeps BENCHMARK.json and the
// metric lists of this package in step.
func TestBenchmarkJSONDeclaresPrintedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, perfbench prints %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, perfbench %s/%s",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != "attack-kp512,service-refute" {
		t.Errorf("workloads %v", names)
	}
}

// TestServiceRefuteRuns is a tiny end-to-end run of service-refute,
// untraced and traced.
func TestServiceRefuteRuns(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var out bytes.Buffer
		code := run([]string{"-workload", "service-refute", "-seed", "3", "-seconds", "1",
			"-trace", trace, "-root", "..", "-workdir", t.TempDir()}, &out)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", trace, code, out.String())
		}
		defs := endToEnd
		if trace == "1" {
			defs = perLayer
			if !strings.Contains(out.String(), "# trace work match: true") {
				t.Errorf("traced work differs from untraced:\n%s", out.String())
			}
		}
		if !checkMetrics(t, out.String(), defs) {
			t.Errorf("trace %s: run not correct:\n%s", trace, out.String())
		}
		if !strings.Contains(out.String(), `"gomaxprocs"`) || !strings.Contains(out.String(), `"cpu"`) {
			t.Errorf("run environment missing from output:\n%s", out.String())
		}
	}
}

// TestWrongAnswerLowersOkFrac expects "recovered" for one refutation
// job: that op must count as failed, stay out of the latencies, and
// lower ok_frac.
func TestWrongAnswerLowersOkFrac(t *testing.T) {
	ctx := context.Background()
	u, err := startDaemon(ctx, t.TempDir(), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer u.stop()
	p := closedLoop(ctx, refuteClients, 500*time.Millisecond, func(ctx context.Context, i int) opResult {
		job := newRefuteJob(5, i)
		if i == 0 {
			job.want = "recovered"
		}
		return u.refute(ctx, i, job)
	})
	rep := newReport()
	rep.count(p)
	rep.endMetrics(p)
	if p.results[0].ok || rep.failed != 1 {
		t.Fatalf("wrong expected answer passed: failed=%d first=%+v", rep.failed, p.results[0])
	}
	n := float64(len(p.results))
	if got := rep.end["ok_frac"]; got != (n-1)/n {
		t.Errorf("ok_frac = %v with one wrong answer in %v ops", got, n)
	}
	if len(p.okLatencies()) != len(p.results)-1 {
		t.Errorf("the wrong answer was timed as a success")
	}
}

// TestShortAttack runs one attack-kp512 campaign cut to its first
// solve. It cannot recover with 3 faults and must say so; traced and
// untraced it must do the same work; and the report built from it
// must print every metric with its unit.
func TestShortAttack(t *testing.T) {
	in := newAttackInput(7, 0)
	in.injs = in.injs[:firstSolve(attackMode)]
	ctx := context.Background()
	plain, _ := attackOp(ctx, 0, in, false)
	traced, _ := attackOp(ctx, 0, in, true)
	if plain.ok || !strings.Contains(plain.note, "not recovered") {
		t.Fatalf("a 3-fault campaign passed as recovered: %+v", plain)
	}
	if plain.fp != traced.fp {
		t.Errorf("traced work %q differs from untraced %q", traced.fp, plain.fp)
	}
	if traced.layers["core.solve_calls"] != 1 || traced.layers["core.solve_s"] <= 0 || traced.layers["core.encode_s"] <= 0 {
		t.Errorf("traced layers not measured: %v", traced.layers)
	}

	for _, trace := range []bool{false, true} {
		var out bytes.Buffer
		p := phase{results: []opResult{plain}, elapsed: plain.latency}
		var tp *phase
		if trace {
			tp = &phase{results: []opResult{traced}, elapsed: traced.latency}
		}
		rep := attackReport(&out, 0.01, p, tp)
		if rep.failed == 0 || rep.end["ok_frac"] != 0 {
			t.Errorf("failed campaign not counted: failed=%d ok_frac=%v", rep.failed, rep.end["ok_frac"])
		}
		line, err := rep.result(trace)
		if err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		if checkMetrics(t, string(line), defs) {
			t.Errorf("trace=%v: a run with a failed op reported correct", trace)
		}
	}
}
