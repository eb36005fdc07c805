// Package serve is the serving skeleton simd and simsched share: the
// store read-through (ReadThrough), the HTTP pieces both APIs speak,
// the drain both binaries run on shutdown (Run) and the pprof listener.
// What differs between the services (status mapping, admission, simd's
// store-probing /healthz, the ring walk) stays in them.
package serve

import (
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux
	"os"
)

// Pprof serves net/http/pprof on addr from a background goroutine; an
// empty addr disables it.  The address is bound synchronously, so the
// success banner is only printed for a listener that exists (a bind
// failure reports the error instead, without failing the service).  The
// listener uses http.DefaultServeMux (where net/http/pprof registers),
// which the services' explicit handlers never share.  Keep addr off the
// service port — the profile endpoints are unauthenticated.
func Pprof(name, addr string) {
	if addr == "" {
		return
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: pprof listener: %v\n", name, err)
		return
	}
	go func() {
		if err := http.Serve(ln, nil); err != nil {
			fmt.Fprintf(os.Stderr, "%s: pprof listener: %v\n", name, err)
		}
	}()
	fmt.Fprintf(os.Stderr, "%s: pprof on http://%s/debug/pprof/\n", name, ln.Addr())
}
