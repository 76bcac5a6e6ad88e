package httpaff

import (
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"affinityaccept/serve"
)

// TestProductionLinksNoSimulator keeps DESIGN.md's layering rule true:
// the production packages, and every tool and example that serves
// traffic, import no simulator package, directly or transitively.
// internal/core is the only part of the reproduction they share.
func TestProductionLinksNoSimulator(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH")
	}
	simulator := `affinityaccept/internal/(sim|mem|sched|tcp|nic|app|locks|perfctr|workload|experiments)`
	// The production packages may not link the load generator either.
	production := regexp.MustCompile(`^(` + simulator + `|affinityaccept/internal/loadgen)$`)
	// The serving binaries may drive load with internal/loadgen, which
	// imports no simulator package, but not reach the server through the
	// root package: that is the simulator's facade.
	binary := regexp.MustCompile(`^(affinityaccept|` + simulator + `)$`)
	for pkg, banned := range map[string]*regexp.Regexp{
		"serve": production, "httpaff": production, "proxyaff": production, "wsaff": production,
		"cmd/affinity-bench": binary, "cmd/affinity-top": binary,
		"examples/reuseport": binary, "examples/longlived": binary, "examples/webfarm": binary,
		"examples/edgeproxy": binary, "examples/chat": binary,
	} {
		out, err := exec.Command("go", "list", "-deps", "affinityaccept/"+pkg).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", pkg, err)
		}
		for _, dep := range strings.Fields(string(out)) {
			if banned.MatchString(dep) {
				t.Errorf("%s links simulator package %s", pkg, dep)
			}
		}
	}
}

// TestTuningTablesMatchConfigFields keeps docs/TUNING.md honest: the
// knob table under each "## <pkg>.Config" heading names exactly that
// struct's fields, so a knob is declared once and a deleted one cannot
// linger in the docs.
func TestTuningTablesMatchConfigFields(t *testing.T) {
	doc, err := os.ReadFile("../docs/TUNING.md")
	if err != nil {
		t.Fatal(err)
	}
	for heading, cfg := range map[string]reflect.Type{
		"## serve.Config":   reflect.TypeOf(serve.Config{}),
		"## httpaff.Config": reflect.TypeOf(Config{}),
	} {
		var want []string
		for i := 0; i < cfg.NumField(); i++ {
			want = append(want, cfg.Field(i).Name)
		}
		got := tuningKnobs(t, string(doc), heading)
		sort.Strings(want)
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: table knobs and struct fields differ\n table:  %v\n struct: %v", heading, got, want)
		}
	}
}

// tuningKnobs returns the backticked names in the first column of the
// table that follows heading. Every such name must look like a field.
func tuningKnobs(t *testing.T, doc, heading string) []string {
	_, section, ok := strings.Cut(doc, heading)
	if !ok {
		t.Fatalf("docs/TUNING.md has no %q section", heading)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	field := regexp.MustCompile(`^[A-Z][A-Za-z0-9]*$`)
	backticked := regexp.MustCompile("`([^`]*)`")
	var knobs []string
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cell := strings.SplitN(line, "|", 3)[1]
		for _, name := range backticked.FindAllStringSubmatch(cell, -1) {
			if !field.MatchString(name[1]) {
				t.Errorf("%s: knob column names %q, which is not a Config field", heading, name[1])
				continue
			}
			knobs = append(knobs, name[1])
		}
	}
	return knobs
}
