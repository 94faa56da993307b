package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// closedLoop runs ops on `threads` goroutines. Each takes the next
// op index as soon as its previous op completes and starts no new op
// once window has elapsed; ops in flight at that point run to the end
// and are measured. The phase lasts from the start to the last
// completion.
func closedLoop(ctx context.Context, threads int, window time.Duration, op func(ctx context.Context, i int) opResult) phase {
	var next atomic.Int64
	var mu sync.Mutex
	var results []opResult
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < window && ctx.Err() == nil {
				r := op(ctx, int(next.Add(1)-1))
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p := phase{results: results, elapsed: time.Since(start)}
	sort.Slice(p.results, func(i, j int) bool { return p.results[i].idx < p.results[j].idx })
	return p
}

// phaseWindow is the per-phase window: a traced run splits its time
// between the untraced reference phase and the traced phase.
func phaseWindow(o options) time.Duration {
	if o.trace {
		return o.window / 2
	}
	return o.window
}
