// Package membership is the self-managing backend ring: a registry of
// simd members that owns which backends are routable.  Each member is
// actively probed (GET /healthz with a per-probe timeout) on a fixed
// interval; after QuarantineAfter consecutive failures a member is
// quarantined — still probed, no longer routable — and a single
// successful recovery probe reinstates it.  A member that stays
// quarantined past EvictAfter is permanently evicted and must rejoin
// through the admin API (simd's -announce flag does this on startup, so
// a restarted backend rejoins by itself).
//
// The routable set is the active members; when none is active (a total
// outage), it is every quarantined member not yet evicted, so routing
// keeps trying whichever backend recovers first, not only the last one
// to fail.  Every change to the routable set bumps an epoch and invokes
// OnChange with the new set; the scheduler subscribes and swaps its
// consistent-hash ring atomically, so a dead backend stops receiving
// shards within about one probe interval instead of one connect timeout
// per request.  In-flight requests to a member that gets quarantined are
// not interrupted — quarantine only stops new routing.
package membership

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/obs"
)

// State is a member's lifecycle state.
type State string

// Member lifecycle: Active (routable) -> Quarantined (probed, not
// routable) -> evicted (removed).  Evicted members do not appear in
// snapshots; rejoin re-creates them as Active.
const (
	StateActive      State = "active"
	StateQuarantined State = "quarantined"
)

// Config configures a Registry.  Zero values select the defaults.
type Config struct {
	// ProbeInterval is the time between probe rounds (default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds each member's health probe (default 1s).  A
	// timeout longer than ProbeInterval is allowed: a member whose probe
	// is still in flight is simply skipped by the next round.
	ProbeTimeout time.Duration
	// QuarantineAfter is the consecutive probe-failure count that
	// quarantines a member (default 3).
	QuarantineAfter int
	// EvictAfter is how long a member may stay quarantined before it is
	// permanently evicted (default 1m).  0 selects the default; negative
	// disables eviction.
	EvictAfter time.Duration
	// HealthPath is the probe path (default "/healthz").
	HealthPath string
	// HTTPClient performs the probes (nil builds a client with
	// ProbeTimeout; a supplied client's own timeout is left alone and
	// each probe is additionally bounded by a ProbeTimeout context).
	HTTPClient *http.Client
	// OnChange, when set, is called after every routable-set change with
	// the new epoch and routable member URLs (sorted): the active
	// members, or every quarantined one while none is active.  It is
	// empty only once every member has left or been evicted.  Calls are
	// serialized and strictly ordered by epoch.  The callback must not
	// block for long (it runs on the probe/admin path) and must not call
	// the registry's mutating methods (Join/Leave/ProbeNow) — reads like
	// Active and Snapshot are fine.
	OnChange func(epoch uint64, routable []string)
	// Metrics, when set, registers the membership counters and state
	// gauges on the registry.
	Metrics *obs.Registry
	// Logf, when set, receives one line per state transition.
	Logf func(format string, args ...any)
}

func (c *Config) applyDefaults() {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = 3
	}
	if c.EvictAfter == 0 {
		c.EvictAfter = time.Minute
	}
	if c.HealthPath == "" {
		c.HealthPath = "/healthz"
	}
}

// member is the registry's record of one backend.
type member struct {
	url           string
	state         State
	fails         int // consecutive probe failures
	lastProbe     time.Time
	lastLatency   time.Duration
	lastErr       string
	joinedAt      time.Time
	quarantinedAt time.Time
	// probing guards against two overlapping probes of the same member
	// (a slow probe outliving the next round).
	probing bool
}

// Info is a point-in-time public view of one member (GET /v1/ring).
type Info struct {
	URL string `json:"url"`
	// State is "active" or "quarantined".
	State State `json:"state"`
	// ConsecutiveFailures is the current probe failure streak.
	ConsecutiveFailures int `json:"consecutive_failures"`
	// LastProbe is when the member was last probed (zero before the
	// first probe completes).
	LastProbe time.Time `json:"last_probe,omitzero"`
	// LastProbeLatency is the last probe's duration.
	LastProbeLatency time.Duration `json:"last_probe_latency_ns"`
	// LastError is the last probe failure ("" after a success).
	LastError string `json:"last_error,omitempty"`
	// QuarantinedFor is how long the member has been quarantined (0 when
	// active).
	QuarantinedFor time.Duration `json:"quarantined_for_ns,omitempty"`
}

// Registry is the health-checked member registry.  It is safe for
// concurrent use.
type Registry struct {
	cfg    Config
	client *http.Client

	// changeMu serializes every mutation that may bump the epoch
	// (Join, Leave, probe application), so OnChange callbacks observe
	// epochs strictly in order.  It is always acquired before mu.
	changeMu sync.Mutex

	mu      sync.Mutex
	members map[string]*member
	epoch   uint64
	// routable is the routable set of the current epoch.
	routable []string

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// now is the clock, swappable by tests in this package.
	now func() time.Time

	// counters (also exported through cfg.Metrics when set)
	probes         atomic.Uint64
	probeFails     atomic.Uint64
	passiveReports atomic.Uint64
	passiveFails   atomic.Uint64
	quarantines    atomic.Uint64
	reinstates     atomic.Uint64
	evictions      atomic.Uint64
	joins          atomic.Uint64
	leaves         atomic.Uint64
}

// Stats are the registry's cumulative transition counters.
type Stats struct {
	Probes uint64 `json:"probes"`
	// PassiveReports counts dispatch verdicts fed in through
	// ReportDispatch — real traffic standing in for probes between
	// rounds.
	PassiveReports  uint64 `json:"passive_reports"`
	ProbeFailures   uint64 `json:"probe_failures"`
	PassiveFailures uint64 `json:"passive_failures"`
	Quarantines     uint64 `json:"quarantines"`
	Reinstatements  uint64 `json:"reinstatements"`
	Evictions       uint64 `json:"evictions"`
	Joins           uint64 `json:"joins"`
	Leaves          uint64 `json:"leaves"`
}

// New builds a registry seeded with the given member URLs, all initially
// active (optimistically routable; the first probe round corrects any
// that are down).  Call Start to begin probing.
func New(cfg Config, seeds []string) (*Registry, error) {
	cfg.applyDefaults()
	client := cfg.HTTPClient
	if client == nil {
		client = &http.Client{Timeout: cfg.ProbeTimeout}
	}
	r := &Registry{
		cfg:     cfg,
		client:  client,
		members: map[string]*member{},
		stop:    make(chan struct{}),
		now:     time.Now,
	}
	for _, u := range seeds {
		if u == "" {
			return nil, fmt.Errorf("membership: empty seed URL")
		}
		if _, ok := r.members[u]; ok {
			continue
		}
		r.members[u] = &member{url: u, state: StateActive, joinedAt: r.now()}
	}
	if len(r.members) == 0 {
		return nil, fmt.Errorf("membership: at least one seed member is required")
	}
	r.joins.Add(uint64(len(r.members)))
	r.routable = r.routableLocked()
	if cfg.Metrics != nil {
		r.registerMetrics(cfg.Metrics)
	}
	return r, nil
}

// registerMetrics exports the registry's state through an obs.Registry.
func (r *Registry) registerMetrics(m *obs.Registry) {
	m.Sampled("ring_members", "Ring members by state.", obs.TypeGauge, []string{"state"},
		func(emit func([]string, float64)) {
			active, quarantined := 0, 0
			for _, info := range r.Snapshot() {
				if info.State == StateActive {
					active++
				} else {
					quarantined++
				}
			}
			emit([]string{string(StateActive)}, float64(active))
			emit([]string{string(StateQuarantined)}, float64(quarantined))
		})
	m.Sampled("ring_epoch", "Monotonic ring epoch; bumps on every routable-set change.",
		obs.TypeGauge, nil, func(emit func([]string, float64)) {
			emit(nil, float64(r.Epoch()))
		})
	m.Sampled("ring_probes_total", "Health probes, by result.", obs.TypeCounter, []string{"result"},
		func(emit func([]string, float64)) {
			st := r.Stats()
			emit([]string{"ok"}, float64(st.Probes-st.ProbeFailures))
			emit([]string{"fail"}, float64(st.ProbeFailures))
		})
	m.Sampled("ring_passive_reports_total", "Dispatch verdicts fed in via ReportDispatch, by result.",
		obs.TypeCounter, []string{"result"}, func(emit func([]string, float64)) {
			st := r.Stats()
			emit([]string{"ok"}, float64(st.PassiveReports-st.PassiveFailures))
			emit([]string{"fail"}, float64(st.PassiveFailures))
		})
	m.Sampled("ring_transitions_total", "Member lifecycle transitions.", obs.TypeCounter, []string{"kind"},
		func(emit func([]string, float64)) {
			st := r.Stats()
			emit([]string{"quarantine"}, float64(st.Quarantines))
			emit([]string{"reinstate"}, float64(st.Reinstatements))
			emit([]string{"evict"}, float64(st.Evictions))
			emit([]string{"join"}, float64(st.Joins))
			emit([]string{"leave"}, float64(st.Leaves))
		})
}

// Start launches the probe loop.  Close stops it.
func (r *Registry) Start() {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		ticker := time.NewTicker(r.cfg.ProbeInterval)
		defer ticker.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-ticker.C:
				r.ProbeNow(context.Background())
			}
		}
	}()
}

// Close stops the probe loop and waits for in-flight probes.
func (r *Registry) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// Epoch returns the current ring epoch.  The epoch bumps exactly when
// the routable set changes.
func (r *Registry) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// Active returns the routable member URLs, sorted.
func (r *Registry) Active() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.activeLocked()
}

func (r *Registry) activeLocked() []string {
	return r.inStateLocked(StateActive)
}

// routableLocked returns the routable member URLs, sorted: the active
// members, or every quarantined one when none is active.
func (r *Registry) routableLocked() []string {
	if active := r.activeLocked(); len(active) > 0 {
		return active
	}
	return r.inStateLocked(StateQuarantined)
}

func (r *Registry) inStateLocked(state State) []string {
	out := make([]string, 0, len(r.members))
	for _, m := range r.members {
		if m.state == state {
			out = append(out, m.url)
		}
	}
	sort.Strings(out)
	return out
}

// Snapshot returns every member's state, sorted by URL.
func (r *Registry) Snapshot() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	out := make([]Info, 0, len(r.members))
	for _, m := range r.members {
		info := Info{
			URL:                 m.url,
			State:               m.state,
			ConsecutiveFailures: m.fails,
			LastProbe:           m.lastProbe,
			LastProbeLatency:    m.lastLatency,
			LastError:           m.lastErr,
		}
		if m.state == StateQuarantined {
			info.QuarantinedFor = now.Sub(m.quarantinedAt)
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// Stats returns the cumulative transition counters.
func (r *Registry) Stats() Stats {
	return Stats{
		Probes:          r.probes.Load(),
		PassiveReports:  r.passiveReports.Load(),
		ProbeFailures:   r.probeFails.Load(),
		PassiveFailures: r.passiveFails.Load(),
		Quarantines:     r.quarantines.Load(),
		Reinstatements:  r.reinstates.Load(),
		Evictions:       r.evictions.Load(),
		Joins:           r.joins.Load(),
		Leaves:          r.leaves.Load(),
	}
}

// ReportDispatch feeds one real dispatch attempt's verdict into the
// registry: err == nil is a success, anything else a failure.  Passive
// failures share the member's consecutive-failure streak with probes, so
// a backend that fails live traffic is quarantined as soon as the streak
// reaches QuarantineAfter — without waiting for the next probe round.
// A passive success resets an active member's streak but does NOT
// reinstate a quarantined one: reinstatement stays probe- (or join-)
// driven, since a quarantined member receives no routed traffic and any
// late success belongs to an in-flight request from before quarantine.
// Unknown members are ignored (the dispatch may have raced an eviction).
// Wire scheduler.Config.ReportDispatch to this method.
func (r *Registry) ReportDispatch(url string, dispatchErr error) {
	r.passiveReports.Add(1)
	if dispatchErr != nil {
		r.passiveFails.Add(1)
	}

	r.changeMu.Lock()
	defer r.changeMu.Unlock()
	r.mu.Lock()
	m, ok := r.members[url]
	if !ok {
		r.mu.Unlock()
		return
	}
	if dispatchErr == nil {
		if m.state == StateActive {
			m.fails = 0
			m.lastErr = ""
		}
		r.mu.Unlock()
		return
	}
	m.fails++
	m.lastErr = dispatchErr.Error()
	if m.state == StateActive && m.fails >= r.cfg.QuarantineAfter {
		m.state = StateQuarantined
		m.quarantinedAt = r.now()
		r.quarantines.Add(1)
		r.logf("membership: %s quarantined after %d consecutive failures (dispatch: %v)",
			url, m.fails, dispatchErr)
		r.publishLocked() // unlocks
		return
	}
	r.mu.Unlock()
}

// Join adds (or reinstates) a member as active.  Joining an existing
// active member is a no-op; joining a quarantined member reinstates it
// immediately (the caller asserts it is back).
func (r *Registry) Join(url string) error {
	if url == "" {
		return fmt.Errorf("membership: empty member URL")
	}
	r.changeMu.Lock()
	defer r.changeMu.Unlock()
	r.mu.Lock()
	m, ok := r.members[url]
	switch {
	case !ok:
		r.members[url] = &member{url: url, state: StateActive, joinedAt: r.now()}
		r.joins.Add(1)
		r.logf("membership: %s joined", url)
	case m.state == StateQuarantined:
		m.state = StateActive
		m.fails = 0
		m.lastErr = ""
		r.reinstates.Add(1)
		r.logf("membership: %s reinstated by join", url)
	default:
		r.mu.Unlock()
		return nil
	}
	r.publishLocked() // unlocks
	return nil
}

// Leave removes a member entirely, whatever its state.  Unknown URLs
// are an error.  In-flight requests to the member are unaffected.
func (r *Registry) Leave(url string) error {
	r.changeMu.Lock()
	defer r.changeMu.Unlock()
	r.mu.Lock()
	_, ok := r.members[url]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("membership: unknown member %s", url)
	}
	delete(r.members, url)
	r.leaves.Add(1)
	r.logf("membership: %s left", url)
	r.publishLocked() // unlocks
	return nil
}

// publishLocked recomputes the routable set and, if it changed, bumps
// the epoch, unlocks and notifies; otherwise it only unlocks.  The
// caller must hold r.changeMu and r.mu; publishLocked releases r.mu
// (keeping changeMu so epochs are delivered in order).
func (r *Registry) publishLocked() {
	routable := r.routableLocked()
	if slices.Equal(routable, r.routable) {
		r.mu.Unlock()
		return
	}
	r.epoch++
	epoch := r.epoch
	r.routable = routable
	r.mu.Unlock()
	if r.cfg.OnChange != nil {
		r.cfg.OnChange(epoch, routable)
	}
}

func (r *Registry) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// ProbeNow runs one probe round synchronously: every member not already
// being probed is probed concurrently, results are applied, and members
// quarantined past the eviction deadline are evicted.  The probe loop
// calls this on every tick; tests and admins may call it directly.
func (r *Registry) ProbeNow(ctx context.Context) {
	r.mu.Lock()
	targets := make([]*member, 0, len(r.members))
	for _, m := range r.members {
		if !m.probing {
			m.probing = true
			targets = append(targets, m)
		}
	}
	r.mu.Unlock()

	var wg sync.WaitGroup
	for _, m := range targets {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			latency, err := r.probe(ctx, m.url)
			r.applyProbe(m, latency, err)
		}(m)
	}
	wg.Wait()
	r.evictOverdue()
}

// probe performs one health check.
func (r *Registry) probe(ctx context.Context, url string) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, r.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+r.cfg.HealthPath, nil)
	if err != nil {
		return 0, err
	}
	start := r.now()
	resp, err := r.client.Do(req)
	latency := r.now().Sub(start)
	if err != nil {
		return latency, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return latency, fmt.Errorf("health check returned status %d", resp.StatusCode)
	}
	return latency, nil
}

// applyProbe records one probe result.  A member removed (Leave) or
// re-created (Leave+Join) while its probe was in flight is left alone:
// the result belongs to the old incarnation, identified by pointer.
func (r *Registry) applyProbe(m *member, latency time.Duration, probeErr error) {
	r.probes.Add(1)
	if probeErr != nil {
		r.probeFails.Add(1)
	}

	r.changeMu.Lock()
	defer r.changeMu.Unlock()
	r.mu.Lock()
	if r.members[m.url] != m {
		// Raced a concurrent Leave (or Leave+Join, which re-creates the
		// member): drop the stale result.
		r.mu.Unlock()
		return
	}
	m.probing = false
	url := m.url
	m.lastProbe = r.now()
	m.lastLatency = latency

	if probeErr == nil {
		m.fails = 0
		m.lastErr = ""
		if m.state == StateQuarantined {
			m.state = StateActive
			r.reinstates.Add(1)
			r.logf("membership: %s recovered, reinstated", url)
			r.publishLocked() // unlocks
			return
		}
		r.mu.Unlock()
		return
	}

	m.fails++
	m.lastErr = probeErr.Error()
	if m.state == StateActive && m.fails >= r.cfg.QuarantineAfter {
		m.state = StateQuarantined
		m.quarantinedAt = r.now()
		r.quarantines.Add(1)
		r.logf("membership: %s quarantined after %d consecutive probe failures (%v)",
			url, m.fails, probeErr)
		r.publishLocked() // unlocks
		return
	}
	r.mu.Unlock()
}

// evictOverdue permanently removes members quarantined past EvictAfter.
// Eviction bumps the epoch only during a total outage: otherwise the
// member left the routable set when it was quarantined.
func (r *Registry) evictOverdue() {
	if r.cfg.EvictAfter < 0 {
		return
	}
	r.changeMu.Lock()
	defer r.changeMu.Unlock()
	r.mu.Lock()
	now := r.now()
	var evicted []string
	for url, m := range r.members {
		if m.state == StateQuarantined && now.Sub(m.quarantinedAt) >= r.cfg.EvictAfter {
			delete(r.members, url)
			evicted = append(evicted, url)
		}
	}
	r.evictions.Add(uint64(len(evicted)))
	r.publishLocked() // unlocks
	for _, url := range evicted {
		r.logf("membership: %s evicted after %v in quarantine", url, r.cfg.EvictAfter)
	}
}

// Announce registers selfURL with a scheduler's ring admin API (POST
// /v1/ring/members) — called by simd on startup so a restarted backend
// rejoins the ring without operator action.
func Announce(ctx context.Context, client *http.Client, schedulerURL, selfURL string) error {
	if client == nil {
		client = http.DefaultClient
	}
	body, _ := json.Marshal(map[string]string{"url": selfURL}) // a string map always encodes
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		schedulerURL+"/v1/ring/members", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("membership: announce to %s: status %d", schedulerURL, resp.StatusCode)
	}
	return nil
}

// Depart removes selfURL from a scheduler's ring (DELETE
// /v1/ring/members) — simd's graceful-shutdown counterpart to Announce.
// Departing a member the scheduler no longer knows (already evicted) is
// not an error.
func Depart(ctx context.Context, client *http.Client, schedulerURL, selfURL string) error {
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		schedulerURL+"/v1/ring/members?url="+url.QueryEscape(selfURL), nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("membership: depart from %s: status %d", schedulerURL, resp.StatusCode)
	}
	return nil
}
