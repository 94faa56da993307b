package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"sha3afa/internal/core"
	"sha3afa/internal/fault"
	"sha3afa/internal/keccak"
	"sha3afa/internal/obs"
)

// The attack-kp512 op is one campaign run to recovery under cmd/afa's
// defaults: SHA3-512, single-byte faults at the θ input of round 22,
// known positions, an 80-fault budget, and a solve after every fault
// from the information-theoretic minimum on. campaign.RunAFACtx runs
// the same loop but does not return the recovered message, so the
// benchmark drives core.Attack itself and re-hashes the message.
const (
	attackMode      = keccak.SHA3_512
	attackModel     = fault.Byte
	attackMaxFaults = 80
	// attackPlanned is how many campaigns set-up prepares: well over
	// what a 60 s run finishes (about six). Later ops, if any, prepare
	// their inputs outside the op timer.
	attackPlanned = 16
	// attackSetups is how often set-up is repeated; setup_s is the
	// median.
	attackSetups = 9
	// attackThreads is the number of campaigns run at once, one per
	// core of the benchmark machine.
	attackThreads = 2
)

// attackInput is one campaign's observations plus the ground truth the
// answer is checked against.
type attackInput struct {
	msg     []byte
	correct []byte
	injs    []fault.Injection
}

// randomBlock draws a single-block message for mode.
func randomBlock(mode keccak.Mode, rng *rand.Rand) []byte {
	msg := make([]byte, 1+rng.Intn(mode.RateBytes()-1))
	rng.Read(msg)
	return msg
}

func newAttackInput(seed int64, i int) attackInput {
	rng := rand.New(rand.NewSource(opSeed(seed, i)))
	msg := randomBlock(attackMode, rng)
	correct, injs := fault.Campaign(attackMode, msg, attackModel, 22, attackMaxFaults, rng.Int63())
	return attackInput{msg: msg, correct: correct, injs: injs}
}

// firstSolve is the information-theoretic minimum number of faulty
// digests: the state has 1600 bits and each digest gives d of them.
func firstSolve(mode keccak.Mode) int {
	d := mode.DigestBits()
	return (keccak.StateBits - d + d - 1) / d
}

// runAttack is the attack-kp512 workload. Set-up simulates the fault
// campaigns (the attacker's physical work) for the planned ops.
func runAttack(ctx context.Context, o options, w io.Writer) (*report, error) {
	var inputs []attackInput
	var setups []time.Duration
	for k := 0; k < attackSetups; k++ {
		runtime.GC() // each repetition starts from the same heap
		start := time.Now()
		inputs = make([]attackInput, attackPlanned)
		for i := range inputs {
			inputs[i] = newAttackInput(o.seed, i)
		}
		setups = append(setups, time.Since(start))
	}
	plain := attackRounds(ctx, o, inputs, false)
	var traced *phase
	if o.trace {
		p := attackRounds(ctx, o, inputs, true)
		traced = &p
	}
	return attackReport(w, medianDuration(setups), plain, traced), nil
}

// attackReport turns the phases of an attack-kp512 run into metrics:
// end-to-end from the untraced phase, per-layer from the traced one.
func attackReport(w io.Writer, setup float64, plain phase, traced *phase) *report {
	rep := newReport()
	printOps(w, "untraced", plain)
	rep.count(plain)
	rep.end["setup_s"] = setup
	rep.endMetrics(plain)
	var heap []float64
	for _, r := range plain.results {
		if r.ok {
			heap = append(heap, r.heapMB)
		}
	}
	rep.end["heap_live_mb"] = quantile(heap, 0.5)
	if traced != nil {
		printOps(w, "traced", *traced)
		rep.count(*traced)
		rep.layerMeans(*traced)
		rep.compareWork(w, plain, *traced)
	}
	return rep
}

// attackRounds runs campaigns attackThreads at a time, in rounds that
// start together, until the window closes. After each round, with
// every campaign's attack still held, a full GC measures the live heap
// per campaign: the memory a campaign holds at recovery. Measured this
// way it depends neither on where GC cycles fell nor on how far a
// concurrent campaign had got. The measuring GC is left out of the
// phase length.
func attackRounds(ctx context.Context, o options, planned []attackInput, traced bool) phase {
	var p phase
	var measuring time.Duration
	start := time.Now()
	for i := 0; time.Since(start)-measuring < phaseWindow(o) && ctx.Err() == nil; i += attackThreads {
		round := make([]opResult, attackThreads)
		held := make([]*core.Attack, attackThreads)
		var wg sync.WaitGroup
		for k := range round {
			var in attackInput
			if i+k < len(planned) {
				in = planned[i+k]
			} else {
				in = newAttackInput(o.seed, i+k)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				round[k], held[k] = attackOp(ctx, i+k, in, traced)
			}()
		}
		wg.Wait()
		t := time.Now()
		heap := liveHeapMB() / attackThreads
		runtime.KeepAlive(held)
		measuring += time.Since(t)
		for _, r := range round {
			r.heapMB = heap
			p.results = append(p.results, r)
		}
	}
	p.elapsed = time.Since(start) - measuring
	return p
}

// attackOp runs one campaign to recovery and checks the answer: the
// recovered message must re-hash to the correct digest. Traced ops
// attach a metrics-only recorder and read the phase timers from it.
func attackOp(ctx context.Context, idx int, in attackInput, traced bool) (opResult, *core.Attack) {
	cfg := core.DefaultConfig(attackMode, attackModel)
	cfg.KnownPosition = true
	var rec *obs.Trace
	if traced {
		rec = obs.NewTrace(nil, 0)
		cfg.Recorder = rec
	}
	res := opResult{idx: idx}
	var encode, solveCall time.Duration
	solves, candidates := 0, 0

	start := time.Now()
	atk := core.NewAttack(cfg)
	t := time.Now()
	err := atk.AddCorrect(in.correct)
	encode += time.Since(t)
	first := firstSolve(attackMode)
	for k := 0; err == nil && k < len(in.injs) && res.faults == 0; k++ {
		t = time.Now()
		err = atk.AddInjection(in.injs[k])
		encode += time.Since(t)
		if err != nil || k+1 < first {
			continue
		}
		var r core.Result
		r, err = atk.SolveContext(ctx)
		if err != nil {
			break
		}
		solves++
		candidates += r.Candidates
		solveCall += r.SolveTime
		switch r.Status {
		case core.Recovered:
			res.faults = k + 1
			msg, ok := atk.ExtractMessage(r.ChiInput)
			res.ok = ok && bytes.Equal(keccak.Sum(attackMode, msg), in.correct)
			if !res.ok {
				res.note = "recovered message does not re-hash to the correct digest"
			}
		case core.Inconsistent, core.BudgetExceeded:
			err = fmt.Errorf("solve after %d faults: %s", k+1, r.Status)
		}
	}
	res.latency = time.Since(start)
	switch {
	case err != nil:
		res.note = err.Error()
	case res.faults == 0:
		res.note = fmt.Sprintf("not recovered within %d faults", len(in.injs))
	}

	var conflicts, props int64
	for _, st := range atk.SolverStats() {
		conflicts += st.Stats.Conflicts
		props += st.Stats.Propagations
	}
	res.fp = fmt.Sprintf("faults=%d conflicts=%d propagations=%d candidates=%d solves=%d",
		res.faults, conflicts, props, candidates, solves)
	if rec != nil {
		timers := rec.Metrics().Snapshot().Timers
		solve := timers["attack.solve"].TotalMS / 1e3
		decode := timers["attack.decode"].TotalMS / 1e3
		res.layers = map[string]float64{
			"core.encode_s":       encode.Seconds(),
			"sat.load_s":          solveCall.Seconds() - solve - decode,
			"core.solve_s":        solve,
			"core.solve_calls":    float64(solves),
			"core.candidates":     float64(candidates),
			"core.decode_s":       decode,
			"core.accounted_frac": (encode.Seconds() + solve + decode) / res.latency.Seconds(),
			"sat.conflicts":       float64(conflicts),
			"sat.propagations":    float64(props),
		}
	}
	return res, atk
}
