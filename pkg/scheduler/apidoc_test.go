package scheduler

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/pkg/frontendsim"
	"repro/pkg/membership"
	"repro/pkg/obs"
)

// metricName matches a backticked snake_case metric family name, with
// or without a label selector.
var metricName = regexp.MustCompile("`([a-z][a-z0-9]*_[a-z0-9_]*)[^`]*`")

// apiDocSection returns docs/API.md's simsched endpoints section.
func apiDocSection(t *testing.T) string {
	t.Helper()
	doc, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	section := string(doc)
	start := strings.Index(section, "\n## simsched endpoints\n")
	if start < 0 {
		t.Fatal("docs/API.md has no simsched endpoints section")
	}
	section = section[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	return section
}

// TestRoutesMatchAPIDoc pins docs/API.md's simsched section to the
// route table: every route has a "### `METHOD /path`" heading, and no
// heading names a route simsched does not serve.
func TestRoutesMatchAPIDoc(t *testing.T) {
	documented := map[string]bool{}
	for _, line := range strings.Split(apiDocSection(t), "\n") {
		if route, ok := strings.CutPrefix(line, "### `"); ok {
			documented[strings.TrimSuffix(route, "`")] = true
		}
	}
	served := map[string]bool{serve.MetricsRoute: true}
	for _, rt := range routes {
		served[rt.Pattern] = true
	}
	for route := range served {
		if !documented[route] {
			t.Errorf("route %q is not documented in docs/API.md's simsched section", route)
		}
	}
	for route := range documented {
		if !served[route] {
			t.Errorf("docs/API.md documents simsched route %q, which the route table lacks", route)
		}
	}
}

// TestMetricsMatchAPIDoc pins the GET /metrics paragraph of docs/API.md's
// simsched section to the registry simsched builds (scheduler,
// membership and HTTP server on one registry): every family rendered is
// named there, and every family named there is rendered.
func TestMetricsMatchAPIDoc(t *testing.T) {
	section := apiDocSection(t)
	start := strings.Index(section, "### `"+serve.MetricsRoute+"`")
	if start < 0 {
		t.Fatal("docs/API.md's simsched section has no GET /metrics paragraph")
	}
	para := section[start:]
	if end := strings.Index(para, "\n### "); end >= 0 {
		para = para[:end]
	}
	documented := map[string]bool{}
	for _, m := range metricName.FindAllStringSubmatch(para, -1) {
		documented[m[1]] = true
	}

	reg := obs.NewRegistry()
	backends := []string{"http://sim-1:8723"}
	sched, err := New(frontendsim.New(), Config{Backends: backends, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	members, err := membership.New(membership.Config{
		OnChange: sched.OnMembershipChange(),
		Metrics:  reg,
	}, backends)
	if err != nil {
		t.Fatal(err)
	}
	defer members.Close()
	NewServer(sched, WithMembership(members), WithMetrics(reg))
	rendered := map[string]bool{}
	for _, line := range strings.Split(reg.Render(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			rendered[f[2]] = true
		}
	}

	for name := range rendered {
		if !documented[name] {
			t.Errorf("simsched renders %s, which docs/API.md's GET /metrics paragraph does not name", name)
		}
	}
	for name := range documented {
		if !rendered[name] {
			t.Errorf("docs/API.md's simsched GET /metrics paragraph names %s, which simsched does not render", name)
		}
	}
}
