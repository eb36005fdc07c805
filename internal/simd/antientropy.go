package simd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/hashring"
	"repro/pkg/resultstore"
)

// Anti-entropy is the one engine that pulls stored results from peers.
// An exchange compares per-bucket FNV-1a key-set digests with a peer
// (GET /v1/store/digest), lists the peer's keys in each differing
// bucket (GET /v1/store/keys?bucket=i&buckets=n) and pulls the ones this
// replica is missing (GET /v1/store/entries/{key}).  Repair is
// pull-only — divergence in the other direction converges when the
// peer's own engine runs.  Two modes drive the same exchange:
//
//   - periodic (Start): a slow background round against this replica's
//     clockwise ring successor, falling back around the ring when it is
//     down, so stores that diverged (a missed hint, an evicted segment,
//     a write that raced a quarantine) converge without waiting for
//     request misses to notice;
//   - join-time (Converge): before a (re)joining replica reports ready,
//     passes against every reachable peer, restricted to the keys that
//     home on this replica, repeated until one completes cleanly — so
//     its first routed requests are cache hits, not a recompute storm.

// AntiEntropyConfig configures Server.NewAntiEntropy.  Zero values
// select the defaults noted on each field.
type AntiEntropyConfig struct {
	// SelfURL is this replica's advertised base URL: excluded from the
	// peers, and the ring node whose slice Converge pulls.  Required
	// with RingURL; a standby converging from a static Peers list
	// without one pulls every key its peers hold.
	SelfURL string
	// Peers are the replica base URLs to repair against.  When empty,
	// peers are discovered from RingURL's GET /v1/ring each round (self
	// excluded).
	Peers []string
	// RingURL is the scheduler base URL whose GET /v1/ring reports the
	// backends currently routed to.  It supplies the peers when Peers is
	// empty (one of the two is required) and Converge's slice: the keys
	// that home on SelfURL in a ring of those backends plus SelfURL.
	// Without it Converge pulls every key its peers hold.
	RingURL string
	// Interval is the periodic exchange period (default 60s —
	// anti-entropy is a slow safety net, not a replication path).
	Interval time.Duration
	// Buckets is the digest bucket count (default
	// resultstore.DefaultDigestBuckets).
	Buckets int
	// Replicas is the ring's virtual-point count for neighbor selection
	// and the Converge slice (default hashring.DefaultReplicas; must
	// match the scheduler's -replicas).
	Replicas int
	// Client performs the HTTP exchange (default: 10s per-request
	// timeout).
	Client *http.Client
	// Logf, when set, receives one line per repairing round or
	// unsettled Converge pass.
	Logf func(format string, args ...any)
}

func (c *AntiEntropyConfig) applyDefaults() {
	if c.Interval <= 0 {
		c.Interval = time.Minute
	}
	if c.Buckets <= 0 {
		c.Buckets = resultstore.DefaultDigestBuckets
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// AntiEntropy is the repair engine.  Build with Server.NewAntiEntropy;
// Converge warms a joining replica, Start runs the periodic loop and
// Close stops it.
type AntiEntropy struct {
	s   *Server
	cfg AntiEntropyConfig

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewAntiEntropy builds the repair engine (no loop running yet).
func (s *Server) NewAntiEntropy(cfg AntiEntropyConfig) (*AntiEntropy, error) {
	cfg.applyDefaults()
	if cfg.SelfURL == "" && cfg.RingURL != "" {
		return nil, errors.New("simd: anti-entropy needs the self URL to slice the ring")
	}
	if len(cfg.Peers) == 0 && cfg.RingURL == "" {
		return nil, errors.New("simd: anti-entropy needs peers or a ring URL")
	}
	return &AntiEntropy{s: s, cfg: cfg, stop: make(chan struct{})}, nil
}

// Start launches the periodic exchange.
func (ae *AntiEntropy) Start() {
	ae.wg.Add(1)
	go func() {
		defer ae.wg.Done()
		ticker := time.NewTicker(ae.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-ae.stop:
				return
			case <-ticker.C:
				pulled, err := ae.RunOnce(context.Background())
				if errors.Is(err, resultstore.ErrScanUnsupported) {
					ae.cfg.Logf("simd: anti-entropy disabled: local store cannot enumerate keys")
					return
				}
				if err != nil {
					ae.cfg.Logf("simd: anti-entropy round: %v", err)
				} else if pulled > 0 {
					ae.cfg.Logf("simd: anti-entropy pulled %d entr%s", pulled, plural(pulled, "y", "ies"))
				}
			}
		}
	}()
}

// Close stops the loop and waits for an in-flight round.
func (ae *AntiEntropy) Close() {
	ae.stopOnce.Do(func() { close(ae.stop) })
	ae.wg.Wait()
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// peers orders the candidates other than self with this replica's
// clockwise ring successor first: it absorbs this replica's slice on
// failure, so it is the likeliest to hold keys this replica is missing.
func (ae *AntiEntropy) peers(candidates []string) []string {
	others := make([]string, 0, len(candidates))
	for _, p := range candidates {
		if p != ae.cfg.SelfURL {
			others = append(others, p)
		}
	}
	if len(others) == 0 {
		return nil
	}
	ring, err := hashring.New(append(append([]string(nil), others...), ae.cfg.SelfURL), ae.cfg.Replicas)
	if err != nil {
		return others
	}
	successor := ring.Successor(ae.cfg.SelfURL)
	ordered := make([]string, 0, len(others))
	if successor != "" {
		ordered = append(ordered, successor)
	}
	for _, p := range others {
		if p != successor {
			ordered = append(ordered, p)
		}
	}
	return ordered
}

// localKeys is this replica's live key set.
func (ae *AntiEntropy) localKeys(ctx context.Context) (map[string]bool, error) {
	keys, ok, err := resultstore.ScanKeys(ctx, ae.s.store, nil)
	if !ok {
		return nil, err
	}
	if err != nil {
		ae.s.aeErrs.Add(1)
		return nil, err
	}
	local := make(map[string]bool, len(keys))
	for _, k := range keys {
		local[k] = true
	}
	return local, nil
}

// ringSnapshot is the subset of the scheduler's GET /v1/ring response
// anti-entropy needs.
type ringSnapshot struct {
	Backends []string `json:"backends"`
	Epoch    uint64   `json:"epoch"`
}

// ring reads the scheduler's current backend set and epoch.
func (ae *AntiEntropy) ring(ctx context.Context) (ringSnapshot, error) {
	var snap ringSnapshot
	if err := getJSON(ctx, ae.cfg.Client, ae.cfg.RingURL+"/v1/ring", &snap); err != nil {
		ae.s.aeErrs.Add(1)
		return snap, err
	}
	return snap, nil
}

// sliceFilter admits the keys that home on self in a ring of the
// scheduler's routed backends plus self.
func sliceFilter(backends []string, self string, replicas int) (func(string) bool, error) {
	ring, err := hashring.New(append(append([]string(nil), backends...), self), replicas)
	if err != nil {
		return nil, err
	}
	return func(key string) bool { return ring.Node(key) == self }, nil
}

// httpGet fetches target's body, failing on any status but 200 and,
// when limit > 0, on a body longer than limit bytes.
func httpGet(ctx context.Context, client *http.Client, target string, limit int64) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("simd: GET %s: status %d", target, resp.StatusCode)
	}
	if limit <= 0 {
		return io.ReadAll(resp.Body)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err == nil && int64(len(body)) > limit {
		return nil, fmt.Errorf("simd: GET %s: body exceeds %d bytes", target, limit)
	}
	return body, err
}

// getJSON decodes target's 200 JSON body into out.
func getJSON(ctx context.Context, client *http.Client, target string, out any) error {
	body, err := httpGet(ctx, client, target, 0)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("simd: GET %s: %w", target, err)
	}
	return nil
}

// RunOnce performs one digest exchange with the first answering peer
// (this replica's ring successor first) and pulls every key it holds
// that this replica is missing.  Returns how many entries were pulled.
// A local store without the Scanner capability returns
// resultstore.ErrScanUnsupported (the loop then disables itself).
func (ae *AntiEntropy) RunOnce(ctx context.Context) (int, error) {
	local, err := ae.localKeys(ctx)
	if err != nil {
		return 0, err
	}
	candidates := ae.cfg.Peers
	if len(candidates) == 0 {
		snap, err := ae.ring(ctx)
		if err != nil {
			return 0, err
		}
		candidates = snap.Backends
	}
	peers := ae.peers(candidates)
	if len(peers) == 0 {
		return 0, nil
	}
	var lastErr error
	for _, p := range peers {
		pulled, _, err := ae.exchange(ctx, p, ae.cfg.Buckets, local, nil)
		if err == nil {
			return pulled, nil
		}
		lastErr = err
	}
	ae.s.aeErrs.Add(1)
	return 0, fmt.Errorf("simd: no anti-entropy peer answered: %w", lastErr)
}

// convergeRetry spaces Converge passes that made no progress.
const convergeRetry = 200 * time.Millisecond

// Converge pulls this replica's ring slice from every reachable peer,
// pass after pass, until a pass fails nothing and sees the ring epoch
// unchanged: a ring change mid-pass re-slices on the next pass, and a
// peer that dies mid-pull costs a pass, not the convergence.  What a
// clean pass pulled does not matter — every answering peer was covered,
// and a store too small for the slice would re-pull its own evictions
// forever.  It returns the entries pulled, with an error when ctx ends
// first (the store keeps what was pulled; the caller decides whether to
// serve cold) or when the local store cannot enumerate its keys.  The
// caller flips readiness only after it returns, so /healthz keeps
// answering 503 while the store fills.
func (ae *AntiEntropy) Converge(ctx context.Context) (int, error) {
	total := 0
	for pass := 0; ; pass++ {
		pulled, err := ae.convergePass(ctx)
		total += pulled
		switch {
		case err == nil:
			return total, nil
		case errors.Is(err, resultstore.ErrScanUnsupported):
			return total, err
		case ctx.Err() != nil:
			return total, fmt.Errorf("simd: convergence incomplete at deadline: %w", err)
		}
		ae.cfg.Logf("simd: convergence pass %d: %v", pass, err)
		if pulled == 0 {
			select {
			case <-ctx.Done():
			case <-time.After(convergeRetry):
			}
		}
	}
}

// convergePass exchanges with every peer under the slice of the ring it
// reads first.  nil means the pass settled; any other error names why
// another pass is due.
func (ae *AntiEntropy) convergePass(ctx context.Context) (int, error) {
	local, err := ae.localKeys(ctx)
	if err != nil {
		return 0, err
	}
	var snap ringSnapshot
	var keep func(string) bool
	if ae.cfg.RingURL != "" {
		if snap, err = ae.ring(ctx); err != nil {
			return 0, err
		}
		if keep, err = sliceFilter(snap.Backends, ae.cfg.SelfURL, ae.cfg.Replicas); err != nil {
			return 0, err
		}
	}
	candidates := ae.cfg.Peers
	if len(candidates) == 0 {
		candidates = snap.Backends
	}
	peers := ae.peers(candidates)
	pulled, failed, answered := 0, 0, 0
	var lastErr error
	for _, p := range peers {
		// One whole-store bucket: a joiner holds a slice of what each
		// peer holds, so finer buckets would differ almost everywhere and
		// only multiply the listings.
		n, f, err := ae.exchange(ctx, p, 1, local, keep)
		if err != nil {
			lastErr = err
			continue
		}
		answered++
		pulled += n
		failed += f
	}
	switch {
	case len(peers) > 0 && answered == 0:
		ae.s.aeErrs.Add(1)
		return 0, fmt.Errorf("simd: no peer answered: %w", lastErr)
	case failed > 0:
		return pulled, fmt.Errorf("pulled %d, %d pull(s) failed", pulled, failed)
	case ae.cfg.RingURL == "":
		return pulled, nil
	}
	after, err := ae.ring(ctx)
	if err != nil {
		return pulled, err
	}
	if after.Epoch != snap.Epoch {
		return pulled, fmt.Errorf("ring epoch moved %d -> %d", snap.Epoch, after.Epoch)
	}
	return pulled, nil
}

// pullEntry fetches key's entry from peer under the rules of PUT
// /v1/store/entries: a non-empty body of at most DefaultMaxBodyBytes.
func (ae *AntiEntropy) pullEntry(ctx context.Context, peer, key string) ([]byte, error) {
	target := peer + "/v1/store/entries/" + url.PathEscape(key)
	body, err := httpGet(ctx, ae.cfg.Client, target, DefaultMaxBodyBytes)
	if err == nil && len(body) == 0 {
		return nil, fmt.Errorf("simd: GET %s: empty store entry", target)
	}
	return body, err
}

// exchange compares per-bucket digests with peer and pulls every key
// the peer holds that local lacks and keep admits (nil admits every
// key), adding what it pulls to local.  The error reports a peer that
// could not be compared with at all — unreachable, or 501 from a store
// that cannot enumerate; failed counts bucket listings and entry pulls
// that broke mid-exchange, including entries pullEntry refuses (nothing
// is stored for those).
func (ae *AntiEntropy) exchange(ctx context.Context, peer string, buckets int, local map[string]bool, keep func(string) bool) (pulled, failed int, err error) {
	var digest storeDigestResponse
	if err := getJSON(ctx, ae.cfg.Client, fmt.Sprintf("%s/v1/store/digest?buckets=%d", peer, buckets), &digest); err != nil {
		return 0, 0, err
	}
	localKeys := make([]string, 0, len(local))
	for k := range local {
		localKeys = append(localKeys, k)
	}
	localDigests := resultstore.BucketDigests(localKeys, buckets)
	if len(digest.Digests) != len(localDigests) {
		return 0, 0, fmt.Errorf("simd: digest bucket mismatch with %s: %d != %d",
			peer, len(digest.Digests), len(localDigests))
	}

	for b := range localDigests {
		if digest.Digests[b] == localDigests[b] || digest.Digests[b].Count == 0 {
			continue
		}
		var listing storeKeysResponse
		if err := getJSON(ctx, ae.cfg.Client,
			fmt.Sprintf("%s/v1/store/keys?bucket=%d&buckets=%d", peer, b, buckets), &listing); err != nil {
			failed++
			ae.s.aeErrs.Add(1)
			continue
		}
		for _, key := range listing.Keys {
			if local[key] || (keep != nil && !keep(key)) {
				continue
			}
			body, err := ae.pullEntry(ctx, peer, key)
			if err == nil {
				err = ae.s.store.Set(ctx, key, body)
			}
			if err != nil {
				failed++
				ae.s.aeErrs.Add(1)
				continue
			}
			local[key] = true
			pulled++
			ae.s.aePulled.Add(1)
		}
	}
	ae.s.aeRounds.Add(1)
	return pulled, failed, nil
}
