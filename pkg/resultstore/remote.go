package resultstore

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Remote is the network-native backend of the Store interface: a
// memcached-text-protocol client, so replicas on different machines
// share one result tier and a fresh replica serves a peer's cached keys
// without recomputing them (the Thanos query-frontend pattern — a
// remote results cache behind the frontend).
//
// The client keeps the serving path cheap under concurrency the same
// way Thanos's memcached client does:
//
//   - Concurrent Gets are coalesced into batched multi-gets: callers
//     enqueue onto a shared queue, and a bounded worker pool drains up
//     to MaxBatchSize waiting keys into one `get k1 k2 ...` round trip
//     per server.
//   - Work is bounded: Workers goroutines own all network reads for
//     Gets, so a burst of thousands of concurrent requests costs a
//     handful of connections, not a handful of thousands.
//   - Dead servers rotate out: a failed dial or I/O error quarantines
//     the server for DeadCooldown, and key placement walks to the next
//     live server instead of hammering the corpse.  When the cooldown
//     lapses the server is retried.
//
// Values are stored with TTL (Config.TTL; zero keeps entries until the
// server evicts them).  Stats reports the server-side entry count
// (summed `stats` curr_items across live servers, briefly cached);
// hit/miss/set/error counters are exact.
type Remote struct {
	cfg     RemoteConfig
	servers []*remoteServer

	queue chan *remoteGet
	stop  chan struct{}
	wg    sync.WaitGroup

	closed atomic.Bool

	hits    atomic.Uint64
	misses  atomic.Uint64
	sets    atomic.Uint64
	getErrs atomic.Uint64
	setErrs atomic.Uint64
	// rotations counts ops that skipped at least one dead server.
	rotations atomic.Uint64
	// batches / batchedKeys pin the batching behaviour in tests:
	// batchedKeys/batches is the mean multi-get size.
	batches     atomic.Uint64
	batchedKeys atomic.Uint64

	// batchHist, when registered, observes the size of every drained
	// batch as store_remote_batch_size.
	batchHist atomic.Pointer[batchObserver]

	// statsMu guards the cached server-side entry count: Stats is
	// rendered on every /metrics scrape, so the `stats` round trip is
	// issued at most once per statsRefresh.
	statsMu      sync.Mutex
	statsAt      time.Time
	statsEntries int
}

type batchObserver struct{ observe func(float64) }

// RemoteConfig configures a Remote store.  Zero values select the
// defaults noted on each field.
type RemoteConfig struct {
	// Servers are the memcached host:port addresses.  Required.  Keys
	// are placed by hashing onto this list; the list order must match
	// across replicas for them to share placement.
	Servers []string
	// TTL is the expiry stored with every Set (0 = no expiry).
	TTL time.Duration
	// DialTimeout bounds each connection attempt (default 500ms).
	DialTimeout time.Duration
	// OpTimeout bounds each command round trip (default 2s).
	OpTimeout time.Duration
	// MaxBatchSize caps the keys drained into one multi-get (default
	// 16).
	MaxBatchSize int
	// Workers is the size of the Get worker pool (default 4).
	Workers int
	// MaxIdleConns caps the idle connections kept per server (default
	// 2; Sets and Gets dial beyond it and close the surplus).
	MaxIdleConns int
	// DeadCooldown is how long a server stays quarantined after a
	// failure before it is retried (default 5s).
	DeadCooldown time.Duration
}

func (cfg *RemoteConfig) fillDefaults() {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 500 * time.Millisecond
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 2 * time.Second
	}
	if cfg.MaxBatchSize <= 0 {
		cfg.MaxBatchSize = 16
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.MaxIdleConns <= 0 {
		cfg.MaxIdleConns = 2
	}
	if cfg.DeadCooldown <= 0 {
		cfg.DeadCooldown = 5 * time.Second
	}
}

// remoteServer is one cache server: its address, a small idle-connection
// pool, and its circuit state.
type remoteServer struct {
	addr string
	idle chan *remoteConn
	// deadUntil is the unixnano until which the server is quarantined
	// (0 = live).
	deadUntil atomic.Int64
}

func (s *remoteServer) alive(now time.Time) bool {
	until := s.deadUntil.Load()
	return until == 0 || now.UnixNano() >= until
}

// remoteConn couples a connection with its read buffer.
type remoteConn struct {
	net.Conn
	r *bufio.Reader
}

// remoteGet is one caller waiting on the batching queue.
type remoteGet struct {
	key   string
	count bool // false for Peek: stay out of the hit/miss counters
	done  chan remoteGetRes
}

type remoteGetRes struct {
	val []byte
	ok  bool
	err error
}

// NewRemote builds a Remote over cfg and starts its worker pool.  The
// servers are not contacted until the first operation, so a store can
// be constructed before its cache tier is up.
func NewRemote(cfg RemoteConfig) (*Remote, error) {
	if len(cfg.Servers) == 0 {
		return nil, errors.New("resultstore: remote store requires at least one server")
	}
	cfg.fillDefaults()
	r := &Remote{
		cfg:   cfg,
		queue: make(chan *remoteGet, 1024),
		stop:  make(chan struct{}),
	}
	for _, addr := range cfg.Servers {
		r.servers = append(r.servers, &remoteServer{
			addr: addr,
			idle: make(chan *remoteConn, cfg.MaxIdleConns),
		})
	}
	r.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go r.worker()
	}
	return r, nil
}

// validRemoteKey enforces the protocol's key constraints (1..250
// bytes, no whitespace or control characters).  Canonical request-hash
// keys always pass; the check protects against misuse, not traffic.
func validRemoteKey(key string) error {
	if len(key) == 0 || len(key) > 250 {
		return fmt.Errorf("resultstore: remote key length %d out of range 1..250", len(key))
	}
	for i := 0; i < len(key); i++ {
		if key[i] <= ' ' || key[i] == 0x7f {
			return fmt.Errorf("resultstore: remote key contains byte %#x", key[i])
		}
	}
	return nil
}

// pickServers returns the key's placement order: the hash-homed server
// first, then the rest of the ring as failover candidates.
func (r *Remote) pickServers(key string) []*remoteServer {
	h := fnv.New32a()
	h.Write([]byte(key))
	n := len(r.servers)
	home := int(h.Sum32()) % n
	if home < 0 {
		home += n
	}
	out := make([]*remoteServer, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.servers[(home+i)%n])
	}
	return out
}

// connect returns a connection to the first live candidate, dialing
// past dead servers (each skip counts one rotation).  A dial failure
// quarantines that server and moves on.
func (r *Remote) connect(candidates []*remoteServer) (*remoteServer, *remoteConn, error) {
	now := time.Now()
	rotated := false
	for _, srv := range candidates {
		if !srv.alive(now) {
			rotated = true
			continue
		}
		// Reuse an idle connection when one is pooled.
		select {
		case conn := <-srv.idle:
			if rotated {
				r.rotations.Add(1)
			}
			return srv, conn, nil
		default:
		}
		nc, err := net.DialTimeout("tcp", srv.addr, r.cfg.DialTimeout)
		if err != nil {
			r.markDead(srv)
			rotated = true
			continue
		}
		if rotated {
			r.rotations.Add(1)
		}
		return srv, &remoteConn{Conn: nc, r: bufio.NewReader(nc)}, nil
	}
	return nil, nil, errors.New("resultstore: no live remote cache server")
}

// pickLive returns key's placement without dialing: the first live
// candidate in rotation order.  Workers use it to group a batch by
// server; the connect (and any dial failure) happens once per group,
// not once per key.
func (r *Remote) pickLive(key string) (*remoteServer, error) {
	now := time.Now()
	rotated := false
	for _, srv := range r.pickServers(key) {
		if srv.alive(now) {
			if rotated {
				r.rotations.Add(1)
			}
			return srv, nil
		}
		rotated = true
	}
	return nil, errors.New("resultstore: no live remote cache server")
}

// markDead quarantines srv for the dead cooldown.
func (r *Remote) markDead(srv *remoteServer) {
	srv.deadUntil.Store(time.Now().Add(r.cfg.DeadCooldown).UnixNano())
}

// release returns a healthy connection to srv's idle pool (or closes it
// when the pool is full).
func (r *Remote) release(srv *remoteServer, conn *remoteConn) {
	select {
	case srv.idle <- conn:
	default:
		conn.Close()
	}
}

// discard closes a connection after an I/O failure and quarantines its
// server.
func (r *Remote) discard(srv *remoteServer, conn *remoteConn) {
	conn.Close()
	r.markDead(srv)
}

// Get returns the stored response for key.  The read is coalesced with
// other concurrent Gets into one batched multi-get per server.
func (r *Remote) Get(ctx context.Context, key string) ([]byte, bool, error) {
	return r.get(ctx, key, true)
}

// Peek is Get without the hit/miss accounting.
func (r *Remote) Peek(ctx context.Context, key string) ([]byte, bool, error) {
	return r.get(ctx, key, false)
}

func (r *Remote) get(ctx context.Context, key string, count bool) ([]byte, bool, error) {
	if r.closed.Load() {
		return nil, false, errClosed
	}
	if err := validRemoteKey(key); err != nil {
		return nil, false, err
	}
	g := &remoteGet{key: key, count: count, done: make(chan remoteGetRes, 1)}
	select {
	case r.queue <- g:
	case <-r.stop:
		return nil, false, errClosed
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	select {
	case res := <-g.done:
		return res.val, res.ok, res.err
	case <-r.stop:
		return nil, false, errClosed
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}

// worker drains the Get queue: it blocks for one request, sweeps up to
// MaxBatchSize-1 more without blocking, groups them by server and
// issues one multi-get per server.
func (r *Remote) worker() {
	defer r.wg.Done()
	for {
		var first *remoteGet
		select {
		case first = <-r.queue:
		case <-r.stop:
			return
		}
		batch := []*remoteGet{first}
	drain:
		for len(batch) < r.cfg.MaxBatchSize {
			select {
			case g := <-r.queue:
				batch = append(batch, g)
			default:
				break drain
			}
		}
		r.batches.Add(1)
		r.batchedKeys.Add(uint64(len(batch)))
		if h := r.batchHist.Load(); h != nil {
			h.observe(float64(len(batch)))
		}
		// Group by home server.  Most batches are one group (all
		// replicas hash the same key list the same way).
		groups := map[*remoteServer][]*remoteGet{}
		order := []*remoteServer{}
		for _, g := range batch {
			srv, err := r.pickLive(g.key)
			if err != nil {
				if g.count {
					r.getErrs.Add(1)
				}
				g.done <- remoteGetRes{err: err}
				continue
			}
			if _, ok := groups[srv]; !ok {
				order = append(order, srv)
			}
			groups[srv] = append(groups[srv], g)
		}
		for _, srv := range order {
			r.multiGet(srv, groups[srv])
		}
	}
}

// multiGet issues one `get k1 k2 ...` against srv and distributes the
// results.  Any I/O failure discards the connection, quarantines the
// server and fails every get in the group (callers treat a store error
// as a miss).
func (r *Remote) multiGet(srv *remoteServer, gets []*remoteGet) {
	fail := func(err error) {
		for _, g := range gets {
			if g.count {
				r.getErrs.Add(1)
			}
			g.done <- remoteGetRes{err: err}
		}
	}
	_, conn, err := r.connect([]*remoteServer{srv})
	if err != nil {
		fail(err)
		return
	}
	var cmd bytes.Buffer
	cmd.WriteString("get")
	for _, g := range gets {
		cmd.WriteByte(' ')
		cmd.WriteString(g.key)
	}
	cmd.WriteString("\r\n")
	conn.SetDeadline(time.Now().Add(r.cfg.OpTimeout))
	if _, err := conn.Write(cmd.Bytes()); err != nil {
		r.discard(srv, conn)
		fail(fmt.Errorf("resultstore: remote get %s: %w", srv.addr, err))
		return
	}
	values, err := readValues(conn.r)
	if err != nil {
		r.discard(srv, conn)
		fail(fmt.Errorf("resultstore: remote get %s: %w", srv.addr, err))
		return
	}
	conn.SetDeadline(time.Time{})
	r.release(srv, conn)
	for _, g := range gets {
		val, ok := values[g.key]
		if g.count {
			if ok {
				r.hits.Add(1)
			} else {
				r.misses.Add(1)
			}
		}
		g.done <- remoteGetRes{val: val, ok: ok}
	}
}

// readValues parses the VALUE...END response of a get command.
func readValues(br *bufio.Reader) (map[string][]byte, error) {
	values := map[string][]byte{}
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, err
		}
		line = trimCRLF(line)
		if line == "END" {
			return values, nil
		}
		var key string
		var flags uint32
		var size int
		if n, err := fmt.Sscanf(line, "VALUE %s %d %d", &key, &flags, &size); n != 3 || err != nil {
			return nil, fmt.Errorf("unexpected response line %q", line)
		}
		if size < 0 || size > maxValLen {
			return nil, fmt.Errorf("implausible value length %d", size)
		}
		block, err := readBlock(br, size+2)
		if err != nil {
			return nil, err
		}
		if block[size] != '\r' || block[size+1] != '\n' {
			return nil, errors.New("malformed data block")
		}
		values[key] = block[:size:size]
	}
}

func trimCRLF(s string) string {
	for len(s) > 0 && (s[len(s)-1] == '\n' || s[len(s)-1] == '\r') {
		s = s[:len(s)-1]
	}
	return s
}

// readBlock reads exactly n bytes from r, growing the buffer as the
// bytes arrive instead of trusting n up front: a corrupt or hostile
// length costs what the server actually sends, not an n-byte
// allocation.
func readBlock(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, 64<<10))
	for len(buf) < n {
		from := len(buf)
		buf = slices.Grow(buf, min(n-from, from))
		buf = buf[:min(n, cap(buf))]
		if _, err := io.ReadFull(r, buf[from:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Set stores val under key with the configured TTL.  Sets are
// synchronous single commands: the serving path writes once per
// computed result, so batching buys nothing there.
func (r *Remote) Set(ctx context.Context, key string, val []byte) error {
	if r.closed.Load() {
		return errClosed
	}
	if err := validRemoteKey(key); err != nil {
		r.setErrs.Add(1)
		return err
	}
	if len(val) > maxValLen {
		r.setErrs.Add(1)
		return fmt.Errorf("resultstore: value length %d exceeds %d", len(val), maxValLen)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	srv, conn, err := r.connect(r.pickServers(key))
	if err != nil {
		r.setErrs.Add(1)
		return err
	}
	exptime := int64(r.cfg.TTL / time.Second)
	var cmd bytes.Buffer
	fmt.Fprintf(&cmd, "set %s 0 %d %d\r\n", key, exptime, len(val))
	cmd.Write(val)
	cmd.WriteString("\r\n")
	conn.SetDeadline(time.Now().Add(r.cfg.OpTimeout))
	if _, err := conn.Write(cmd.Bytes()); err != nil {
		r.discard(srv, conn)
		r.setErrs.Add(1)
		return fmt.Errorf("resultstore: remote set %s: %w", srv.addr, err)
	}
	line, err := conn.r.ReadString('\n')
	if err != nil {
		r.discard(srv, conn)
		r.setErrs.Add(1)
		return fmt.Errorf("resultstore: remote set %s: %w", srv.addr, err)
	}
	conn.SetDeadline(time.Time{})
	r.release(srv, conn)
	if line = trimCRLF(line); line != "STORED" {
		r.setErrs.Add(1)
		return fmt.Errorf("resultstore: remote set %s: server answered %q", srv.addr, line)
	}
	r.sets.Add(1)
	return nil
}

// Stats returns the remote tier's counters.  Entries is the server-side
// key count: the summed curr_items each live server reports to the
// memcached `stats` command, refreshed at most once per second and
// holding the last known value while servers are unreachable.
func (r *Remote) Stats() []TierStats {
	return []TierStats{{
		Tier:    "remote",
		Entries: r.currItems(),
		Hits:    r.hits.Load(),
		Misses:  r.misses.Load(),
		Sets:    r.sets.Load(),
		Errors:  r.getErrs.Load() + r.setErrs.Load(),
	}}
}

// statsRefresh is the minimum interval between server-side `stats`
// round trips.
const statsRefresh = time.Second

// currItems returns the cached server-side entry count, refreshing it
// from the servers when the cache is stale.
func (r *Remote) currItems() int {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	now := time.Now()
	if r.closed.Load() || (!r.statsAt.IsZero() && now.Sub(r.statsAt) < statsRefresh) {
		return r.statsEntries
	}
	r.statsAt = now
	total, reached := 0, false
	for _, srv := range r.servers {
		n, err := r.serverCurrItems(srv)
		if err != nil {
			continue
		}
		reached = true
		total += n
	}
	if reached {
		r.statsEntries = total
	}
	return r.statsEntries
}

// serverCurrItems issues one `stats` command to srv and returns its
// curr_items figure.  Unknown STAT lines are skipped.
func (r *Remote) serverCurrItems(srv *remoteServer) (int, error) {
	if !srv.alive(time.Now()) {
		return 0, errors.New("resultstore: remote cache server quarantined")
	}
	_, conn, err := r.connect([]*remoteServer{srv})
	if err != nil {
		return 0, err
	}
	conn.SetDeadline(time.Now().Add(r.cfg.OpTimeout))
	if _, err := conn.Write([]byte("stats\r\n")); err != nil {
		r.discard(srv, conn)
		return 0, fmt.Errorf("resultstore: remote stats %s: %w", srv.addr, err)
	}
	items := 0
	for {
		line, err := conn.r.ReadString('\n')
		if err != nil {
			r.discard(srv, conn)
			return 0, fmt.Errorf("resultstore: remote stats %s: %w", srv.addr, err)
		}
		line = trimCRLF(line)
		if line == "END" {
			break
		}
		if !strings.HasPrefix(line, "STAT ") {
			r.discard(srv, conn)
			return 0, fmt.Errorf("resultstore: remote stats %s: server answered %q", srv.addr, line)
		}
		var n int
		if _, err := fmt.Sscanf(line, "STAT curr_items %d", &n); err == nil {
			items = n
		}
	}
	conn.SetDeadline(time.Time{})
	r.release(srv, conn)
	return items, nil
}

// Rotations returns how many operations skipped at least one dead
// server (tests and debugging).
func (r *Remote) Rotations() uint64 { return r.rotations.Load() }

// BatchStats returns how many multi-get batches have been issued and
// how many keys they carried in total.
func (r *Remote) BatchStats() (batches, keys uint64) {
	return r.batches.Load(), r.batchedKeys.Load()
}

// Close stops the worker pool and closes the pooled connections.  The
// server-side data survives — a reconnecting replica (a fresh Remote
// over the same servers) serves it again.
func (r *Remote) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(r.stop)
	r.wg.Wait()
	// Fail any getters that were queued but never picked up (their own
	// selects on r.stop already unblocked them; this drains the queue).
	for {
		select {
		case g := <-r.queue:
			g.done <- remoteGetRes{err: errClosed}
			continue
		default:
		}
		break
	}
	for _, srv := range r.servers {
		for {
			select {
			case conn := <-srv.idle:
				conn.Close()
				continue
			default:
			}
			break
		}
	}
	return nil
}
