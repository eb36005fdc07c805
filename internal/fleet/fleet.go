// Package fleet builds an in-process serving fleet: simd replicas, each
// at a stable URL it can be killed and restarted behind, optionally
// fronted by a seeded fault-injecting proxy, and schedulers over them
// wired to a membership registry the way cmd/simsched wires one.  The
// chaos suite and examples/distributed build their fleets here.
package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/simd"
	"repro/pkg/frontendsim"
	"repro/pkg/membership"
	"repro/pkg/resultstore"
	"repro/pkg/scheduler"
)

// Config describes a fleet.
type Config struct {
	// Replicas is the number of simd replicas.
	Replicas int
	// Engine configures every replica's engine and the fleet's keying
	// engine (Engine), so every tier keys and runs alike.
	Engine []frontendsim.Option
	// Server configures every replica's simd server.
	Server []simd.Option
	// Store opens a replica's store over the replica's own directory,
	// at start and again on every Restart.  Nil selects a 128-entry
	// memory LRU, which a restart empties.
	Store func(dir string) (resultstore.Store, error)
	// FaultSeed, when nonzero, fronts replica i with a fault-injecting
	// proxy whose injector is seeded FaultSeed+i.
	FaultSeed int64
}

// DiskStore is a Config.Store that stacks a cache-entry memory LRU over
// a disk store in the replica's directory, as simd's -cache and
// -store-dir do; a restarted replica replays what it wrote.
func DiskStore(cache int) func(dir string) (resultstore.Store, error) {
	return func(dir string) (resultstore.Store, error) {
		return resultstore.OpenStack(cache, resultstore.DiskConfig{Dir: dir})
	}
}

// Fleet is a running set of replicas.  Close stops everything it
// started.
type Fleet struct {
	Replicas []*Replica
	// Engine has the replicas' options, for keying requests and
	// computing serial references.
	Engine *frontendsim.Engine

	cfg     Config
	dir     string
	servers []*httptest.Server
	members []*membership.Registry
}

// New starts cfg.Replicas replicas.
func New(cfg Config) (*Fleet, error) {
	dir, err := os.MkdirTemp("", "fleet-")
	if err != nil {
		return nil, err
	}
	f := &Fleet{Engine: frontendsim.New(cfg.Engine...), cfg: cfg, dir: dir}
	for i := range cfg.Replicas {
		r := &Replica{cfg: &f.cfg, dir: filepath.Join(dir, fmt.Sprint(i))}
		if err := r.start(); err != nil {
			f.Close()
			return nil, err
		}
		f.Replicas = append(f.Replicas, r)
		live := r.unlessDown(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			r.proc.Load().api.ServeHTTP(w, req)
		}))
		srv := httptest.NewServer(live)
		f.servers = append(f.servers, srv)
		r.URL = srv.URL
		if cfg.FaultSeed != 0 {
			r.Faults = faultinject.New(cfg.FaultSeed + int64(i))
			proxy, err := faultinject.NewProxy(srv.URL, r.Faults)
			if err != nil {
				f.Close()
				return nil, err
			}
			front := httptest.NewServer(r.unlessDown(proxy))
			f.servers = append(f.servers, front)
			r.URL = front.URL
		}
	}
	return f, nil
}

// Runs sums the engine runs of every replica's current process.
func (f *Fleet) Runs() int64 {
	var n int64
	for _, r := range f.Replicas {
		n += r.Runs()
	}
	return n
}

// Scheduler builds a scheduler keyed by f.Engine over cfg.Backends, or
// over every replica when that is empty.  With mcfg non-nil it also
// builds a membership registry over the same backends, wired as
// cmd/simsched wires one: every dispatch verdict feeds ReportDispatch,
// and every change of the routable set swaps the scheduler's ring
// (mcfg.OnChange is overwritten).  The registry is not started; Close
// closes it.
func (f *Fleet) Scheduler(cfg scheduler.Config, mcfg *membership.Config) (*scheduler.Scheduler, *membership.Registry, error) {
	if len(cfg.Backends) == 0 {
		for _, r := range f.Replicas {
			cfg.Backends = append(cfg.Backends, r.URL)
		}
	}
	var members *membership.Registry
	if mcfg != nil {
		cfg.ReportDispatch = func(node string, err error) { members.ReportDispatch(node, err) }
	}
	sched, err := scheduler.New(f.Engine, cfg)
	if err != nil || mcfg == nil {
		return sched, nil, err
	}
	mc := *mcfg
	mc.OnChange = sched.OnMembershipChange()
	if members, err = membership.New(mc, cfg.Backends); err != nil {
		return nil, nil, err
	}
	f.members = append(f.members, members)
	return sched, members, nil
}

// Await polls done every 5 ms until it reports true, and fails naming
// what it waited for once timeout passes.
func Await(timeout time.Duration, what string, done func() bool) error {
	deadline := time.Now().Add(timeout)
	for !done() {
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// WaitReady waits until every replica's /healthz answers 200.
func (f *Fleet) WaitReady(timeout time.Duration) error {
	for _, r := range f.Replicas {
		err := Await(timeout, r.URL+" to be ready", func() bool {
			resp, err := http.Get(r.URL + "/healthz")
			if err != nil {
				return false
			}
			resp.Body.Close()
			return resp.StatusCode == http.StatusOK
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// WaitRing waits until sched routes over exactly nodes, and names the
// ring it last saw on timeout.
func WaitRing(sched *scheduler.Scheduler, timeout time.Duration, nodes ...string) error {
	want := slices.Sorted(slices.Values(nodes))
	var got []string
	err := Await(timeout, fmt.Sprintf("ring %v", want), func() bool {
		got = slices.Sorted(slices.Values(sched.Ring().Nodes()))
		return slices.Equal(got, want)
	})
	if err != nil {
		return fmt.Errorf("%w; the ring is %v", err, got)
	}
	return nil
}

// Close closes the registries Scheduler built, the replicas' servers
// (waiting for in-flight requests) and stores, and removes the stores'
// directories; a store's Close error is dropped, as its directory goes
// next.
func (f *Fleet) Close() {
	for _, m := range f.members {
		m.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
	for _, r := range f.Replicas {
		r.proc.Load().store.Close()
	}
	os.RemoveAll(f.dir)
}

// Replica is one simd replica behind a stable URL.
type Replica struct {
	// URL is the replica's address: its fault proxy's, when it has one.
	URL string
	// Faults is the replica's fault injector (nil without a proxy).
	Faults *faultinject.Injector

	cfg  *Config
	dir  string
	down atomic.Bool
	proc atomic.Pointer[process]
}

// process is one life of a replica: a server over a store, and the
// engine runs it made.
type process struct {
	api   *simd.Server
	store resultstore.Store
	runs  atomic.Int64
}

// start opens the replica's store and serves over it with a fresh
// engine.
func (r *Replica) start() error {
	open := r.cfg.Store
	if open == nil {
		open = func(string) (resultstore.Store, error) { return resultstore.NewMemory(128), nil }
	}
	store, err := open(r.dir)
	if err != nil {
		return err
	}
	p := &process{store: store}
	eng := frontendsim.New(append(slices.Clone(r.cfg.Engine),
		frontendsim.WithObserver(frontendsim.ObserverFunc(func(s frontendsim.Snapshot) {
			if s.Interval == 0 {
				p.runs.Add(1)
			}
		})))...)
	p.api = simd.NewServerWithStore(eng, store, r.cfg.Server...)
	r.proc.Store(p)
	r.down.Store(false)
	return nil
}

// unlessDown serves h while the replica is up; while it is down, every
// connection is dropped without a response, as a dead process's would
// be.
func (r *Replica) unlessDown(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if r.down.Load() {
			panic(http.ErrAbortHandler)
		}
		h.ServeHTTP(w, req)
	})
}

// Store is the current process's store.
func (r *Replica) Store() resultstore.Store { return r.proc.Load().store }

// Runs counts the engine runs of the current process.
func (r *Replica) Runs() int64 { return r.proc.Load().runs.Load() }

// Kill drops the replica off the network.  Its store stays open until
// Restart, so requests already inside the process can finish.
func (r *Replica) Kill() { r.down.Store(true) }

// Restart kills the replica, closes its store and starts a fresh
// process at the same URL over a store reopened on the same directory.
func (r *Replica) Restart() error {
	r.Kill()
	if err := r.proc.Load().store.Close(); err != nil {
		return err
	}
	return r.start()
}
