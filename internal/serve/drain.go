package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"
)

// DrainTimeout bounds how long Run waits for in-flight requests once
// shutdown begins.
const DrainTimeout = 5 * time.Second

// Service is what Run serves: an HTTP API with a readiness flag.
type Service interface {
	http.Handler
	SetReady(ready bool)
}

// Run serves api on ln until ctx ends, then drains: it fails readiness
// first, so health probes stop routing new work here; runs
// beforeShutdown when it is non-nil, while the listener still accepts
// (simd departs the scheduler's ring there); then shuts the server down,
// waiting up to DrainTimeout for in-flight requests, open NDJSON streams
// included.  Run returns once the drain is over, so the caller may close
// what the handlers use.  A serve failure before ctx ends, or a drain
// that outlasts DrainTimeout, is returned.
func Run(ctx context.Context, ln net.Listener, api Service, beforeShutdown func()) error {
	srv := &http.Server{Handler: api, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	api.SetReady(false)
	if beforeShutdown != nil {
		beforeShutdown()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), DrainTimeout)
	defer cancel()
	err := srv.Shutdown(shutdownCtx)
	<-served // http.ErrServerClosed, returned as Shutdown began
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}
