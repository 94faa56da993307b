package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"sha3afa/internal/fault"
	"sha3afa/internal/keccak"
	"sha3afa/internal/obs"
	"sha3afa/internal/service"
)

// The service-refute op is one afad job: a seeded correct digest plus
// refuteFaults faulty digests of an unrelated message, with known
// windows. No state explains both, so the only right answer is
// "inconsistent". Shapes alternate between SHA3-224 and SHA3-512.
const (
	refuteFaults = 8
	refuteWant   = "inconsistent"
	// refuteSetups is how often the daemon is started cold and warmed;
	// setup_s is the median.
	refuteSetups = 5
	// refuteClients is the number of closed-loop clients.
	refuteClients = 2
	// pollEvery is the client's GET cadence while a job runs.
	pollEvery = 5 * time.Millisecond
)

var refuteModes = []keccak.Mode{keccak.SHA3_224, keccak.SHA3_512}

// refuteJob is one job's request body and its expected answer.
type refuteJob struct {
	mode string
	body []byte
	want string
}

// newRefuteJob builds op i's job (i < 0: warm-up jobs, one per shape).
func newRefuteJob(seed int64, i int) refuteJob {
	mode := refuteModes[(i%2+2)%2]
	rng := rand.New(rand.NewSource(opSeed(seed, i)))
	correct := keccak.Sum(mode, randomBlock(mode, rng))
	_, injs := fault.Campaign(mode, randomBlock(mode, rng), fault.Byte, 22, refuteFaults, rng.Int63())
	spec := service.JobSpec{
		Mode:          mode.String(),
		Model:         fault.Byte.String(),
		CorrectDigest: hex.EncodeToString(correct),
		KnownPosition: true,
	}
	for _, inj := range injs {
		spec.FaultyDigests = append(spec.FaultyDigests, hex.EncodeToString(inj.FaultyDigest))
		spec.Windows = append(spec.Windows, inj.Fault.Window)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		panic(err) // a JobSpec always marshals
	}
	return refuteJob{mode: spec.Mode, body: body, want: refuteWant}
}

// daemon is one in-process afad: service.New with default options,
// served on a loopback port.
type daemon struct {
	d    *service.Daemon
	srv  *service.Server
	base string
	dir  string
	http *http.Client
}

// startDaemon starts a daemon on a fresh state directory under workdir
// and warms it with one job per shape, which encodes both templates.
func startDaemon(ctx context.Context, workdir string, seed int64, rec *obs.Trace) (*daemon, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "afad-state-")
	if err != nil {
		return nil, err
	}
	d, err := service.New(service.Options{StateDir: dir, Recorder: rec})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := service.NewServer(d)
	addr, err := srv.Start("127.0.0.1:0")
	u := &daemon{d: d, srv: srv, base: "http://" + addr, dir: dir,
		http: &http.Client{Timeout: 60 * time.Second}}
	if err != nil {
		u.stop()
		return nil, err
	}
	for k := range refuteModes {
		if r := u.refute(ctx, -1-k, newRefuteJob(seed, -1-k)); !r.ok {
			u.stop()
			return nil, fmt.Errorf("warm-up job %d: %s", k, r.note)
		}
	}
	return u, nil
}

// stop closes the listener, drains the daemon and removes its state.
func (u *daemon) stop() {
	u.srv.Close()
	u.d.Drain()
	u.http.CloseIdleConnections()
	os.RemoveAll(u.dir)
}

// setupDaemons starts the daemon refuteSetups times from cold and
// keeps the last one running. It records the median start-up time as
// setup_s and the median live heap of the warmed daemon as
// heap_live_mb.
func setupDaemons(ctx context.Context, o options, rep *report) (*daemon, error) {
	var times []time.Duration
	var heap []float64
	var u *daemon
	for k := 0; k < refuteSetups; k++ {
		if u != nil {
			u.stop()
		}
		start := time.Now()
		var err error
		u, err = startDaemon(ctx, o.workdir, o.seed, nil)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(start))
		heap = append(heap, liveHeapMB()) // also frees the last daemon
	}
	rep.end["setup_s"] = medianDuration(times)
	rep.end["heap_live_mb"] = quantile(heap, 0.5)
	return u, nil
}

// runRefute is the service-refute workload.
func runRefute(ctx context.Context, o options, w io.Writer) (*report, error) {
	rep := newReport()
	u, err := setupDaemons(ctx, o, rep)
	if err != nil {
		return nil, err
	}
	op := func(u *daemon) func(context.Context, int) opResult {
		return func(ctx context.Context, i int) opResult {
			return u.refute(ctx, i, newRefuteJob(o.seed, i))
		}
	}
	plain := closedLoop(ctx, refuteClients, phaseWindow(o), op(u))
	u.stop()
	printOps(w, "untraced", plain)
	rep.count(plain)
	if !o.trace {
		rep.endMetrics(plain)
		return rep, nil
	}

	rec := obs.NewTrace(nil, 0)
	u, err = startDaemon(ctx, o.workdir, o.seed, rec)
	if err != nil {
		return nil, err
	}
	defer u.stop()
	before, err := u.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	traced := closedLoop(ctx, refuteClients, phaseWindow(o), op(u))
	printOps(w, "traced", traced)
	rep.count(traced)
	after, err := u.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	if err := u.layerTimes(ctx, traced, before, after); err != nil {
		return nil, err
	}
	rep.layerMeans(traced)
	// Both templates were encoded while warming this daemon up.
	rep.layer["template.encode_s"], _ = promValue(before, "template_encode_seconds_sum")
	rep.compareWork(w, plain, traced)
	return rep, nil
}

// refute submits one job and polls it to a terminal state. The op is
// timed from POST send to the poll that sees the job terminal; a 429,
// a 5xx, an error or a wrong answer fails it.
func (u *daemon) refute(ctx context.Context, idx int, job refuteJob) opResult {
	res := opResult{idx: idx, faults: refuteFaults, layers: map[string]float64{}}
	start := time.Now()
	var snap service.Job
	code, err := u.call(ctx, http.MethodPost, "/v1/jobs", job.body, &snap)
	res.layers["service.submit_s"] = time.Since(start).Seconds()
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("submit: HTTP %d", code)
	}
	polls, pollTime := 0, time.Duration(0)
	for err == nil && !terminal(snap.State) {
		select {
		case <-ctx.Done():
			err = ctx.Err()
			continue
		case <-time.After(pollEvery):
		}
		t := time.Now()
		code, err = u.call(ctx, http.MethodGet, "/v1/jobs/"+snap.ID, nil, &snap)
		pollTime += time.Since(t)
		polls++
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("poll: HTTP %d", code)
		}
	}
	res.latency = time.Since(start)
	if polls > 0 {
		res.layers["service.poll_s"] = pollTime.Seconds() / float64(polls)
	}
	res.job = snap.ID
	status := ""
	if snap.Result != nil {
		status = snap.Result.Status
		res.fp = fmt.Sprintf("mode=%s status=%s conflicts=%d propagations=%d candidates=%d",
			job.mode, status, snap.Result.Conflicts, snap.Result.Propagations, snap.Result.Candidates)
		res.layers["sat.conflicts"] = float64(snap.Result.Conflicts)
		res.layers["sat.propagations"] = float64(snap.Result.Propagations)
		res.layers["core.candidates"] = float64(snap.Result.Candidates)
		res.solveCall = time.Duration(snap.Result.SolveMillis * float64(time.Millisecond))
	} else {
		res.fp = fmt.Sprintf("mode=%s state=%s", job.mode, snap.State)
	}
	switch {
	case err != nil:
		res.note = err.Error()
	case snap.State != service.StateDone || status != job.want:
		res.note = fmt.Sprintf("job %s: state %s status %q, want done/%s", snap.ID, snap.State, status, job.want)
	default:
		res.ok = true
	}
	return res
}

func terminal(state string) bool {
	return state == service.StateDone || state == service.StateFailed || state == service.StateQuarantined
}

// call makes one request and decodes a JSON response body into out.
func (u *daemon) call(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, u.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := u.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 && out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// layerTimes fills the service-side per-layer values of a traced
// phase from what afad exposes: the queue-wait and attempt histograms
// of GET /metrics (phase means), and each job's event tail, whose
// timestamps split the attempt into instantiate, solver load, solve
// and decode.
func (u *daemon) layerTimes(ctx context.Context, p phase, before, after []byte) error {
	mean := func(name string) float64 {
		s0, _ := promValue(before, name+"_sum")
		n0, _ := promValue(before, name+"_count")
		s1, _ := promValue(after, name+"_sum")
		n1, _ := promValue(after, name+"_count")
		if n1 <= n0 {
			return 0
		}
		return (s1 - s0) / (n1 - n0)
	}
	queueWait := mean("service_queue_wait_seconds")
	attempt := mean("service_attempt_seconds")
	for i := range p.results {
		r := &p.results[i]
		if !r.ok {
			continue
		}
		tail, err := u.get(ctx, "/v1/jobs/"+r.job+"/events")
		if err != nil {
			return err
		}
		ev, err := tailTimes(tail)
		if err != nil {
			return fmt.Errorf("job %s events: %w", r.job, err)
		}
		solveCall := r.solveCall.Seconds()
		load := solveCall - ev.solve - ev.decode
		r.layers["core.instantiate_s"] = ev.toSolve - load
		r.layers["sat.load_s"] = load
		r.layers["core.solve_s"] = ev.solve
		r.layers["core.solve_calls"] = float64(ev.solves)
		r.layers["core.decode_s"] = ev.decode
		r.layers["core.accounted_frac"] = (ev.toSolve + ev.solve + ev.decode) / r.latency.Seconds()
		r.layers["service.queue_wait_s"] = queueWait
		r.layers["service.attempt_s"] = attempt
		r.layers["service.overhead_s"] = attempt - solveCall
	}
	return nil
}

func (u *daemon) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := u.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// promValue reads one unlabelled sample from a Prometheus text body.
func promValue(body []byte, name string) (float64, bool) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}

// attemptTimes is what one job's event tail says about its attempt.
type attemptTimes struct {
	toSolve       float64 // job.start → first attack.solve.start, seconds
	solve, decode float64 // summed span durations, seconds
	solves        int
}

func tailTimes(tail []byte) (attemptTimes, error) {
	var at attemptTimes
	jobStart, solveStart := -1.0, -1.0
	dec := json.NewDecoder(bytes.NewReader(tail))
	for {
		var e obs.Event
		if err := dec.Decode(&e); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return at, err
		}
		ms, _ := e.Fields["ms"].(float64)
		switch e.Ev {
		case "job.start":
			jobStart = e.T
		case "attack.solve.start":
			if solveStart < 0 {
				solveStart = e.T
			}
		case "attack.solve.end":
			at.solve += ms / 1e3
			at.solves++
		case "attack.decode.end":
			at.decode += ms / 1e3
		}
	}
	if jobStart < 0 || solveStart < 0 {
		return at, errors.New("no job.start or attack.solve.start event")
	}
	at.toSolve = solveStart - jobStart
	return at, nil
}
