package frontendsim

import (
	"context"
	"fmt"

	"repro/internal/sim"
)

// Run executes one simulation.  The context is honored between thermal
// intervals: cancelling it aborts the run and returns the context's
// error.  Observers registered on the Engine receive one Snapshot per
// measured interval.
func (e *Engine) Run(ctx context.Context, req Request) (*Result, error) {
	return e.RunObserved(ctx, req)
}

// FaultError reports a panic inside a run: a simulator invariant or
// watchdog that fired, or an observer that panicked.  The simulator is
// deterministic, so the same request faults again; callers should not
// retry it or store it.
type FaultError struct {
	Benchmark string
	Value     any // the recovered panic value
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("frontendsim: run %s faulted: %v", e.Benchmark, e.Value)
}

// RunObserved is Run with additional per-call observers appended to the
// Engine's own.  A panic inside the run is returned as a *FaultError.
func (e *Engine) RunObserved(ctx context.Context, req Request, extra ...Observer) (res *Result, err error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	observers := e.observers
	for _, o := range extra {
		if o != nil {
			// Copy-append so concurrent runs never share the backing
			// array of the Engine's observer slice.
			observers = append(append([]Observer(nil), observers...), o)
		}
	}
	var hook sim.Hook
	if ctx.Done() != nil || len(observers) > 0 {
		bench := req.Benchmark
		hook = func(iv sim.Interval) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			if len(observers) > 0 {
				snap := newSnapshot(bench, iv)
				for _, o := range observers {
					o.OnInterval(snap)
				}
			}
			return nil
		}
	}
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, &FaultError{Benchmark: req.Benchmark, Value: v}
		}
	}()
	sr, err := sim.RunHooked(req.EffectiveConfig(), req.profile(), e.options(req), hook)
	if err != nil {
		return nil, fmt.Errorf("frontendsim: run %s aborted: %w", req.Benchmark, err)
	}
	return newResult(sr), nil
}
