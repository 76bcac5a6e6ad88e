package httpaff

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"affinityaccept/serve"
)

// TestProductionLinksNoSimulator keeps DESIGN.md's layering rule true.
// The production set is a checked definition: serve, httpaff, proxyaff
// and wsaff may link, directly or transitively, only each other and
// internal/{core,evloop,obs,admit,http11} of this module. The tools and
// examples that serve traffic import no simulator package and do not
// reach the server through the root package, the simulator's facade.
func TestProductionLinksNoSimulator(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH")
	}
	production := regexp.MustCompile(`^affinityaccept/(serve|httpaff|proxyaff|wsaff|internal/(core|evloop|obs|admit|http11))$`)
	for _, pkg := range []string{"serve", "httpaff", "proxyaff", "wsaff"} {
		for _, dep := range listDeps(t, pkg) {
			if (dep == "affinityaccept" || strings.HasPrefix(dep, "affinityaccept/")) && !production.MatchString(dep) {
				t.Errorf("%s links %s, which is outside the production set", pkg, dep)
			}
		}
	}
	// The serving binaries may drive load with internal/loadgen, which
	// imports no simulator package.
	simulator := regexp.MustCompile(`^affinityaccept(/internal/(sim|mem|sched|tcp|nic|app|locks|perfctr|workload|experiments))?$`)
	for _, pkg := range []string{
		"cmd/affinity-top", "examples/reuseport", "examples/longlived", "examples/webfarm",
		"examples/edgeproxy", "examples/chat",
	} {
		for _, dep := range listDeps(t, pkg) {
			if simulator.MatchString(dep) {
				t.Errorf("%s links simulator package %s", pkg, dep)
			}
		}
	}
}

// listDeps returns `go list -deps` of one package of this module.
func listDeps(t *testing.T, pkg string) []string {
	t.Helper()
	out, err := exec.Command("go", "list", "-deps", "affinityaccept/"+pkg).Output()
	if err != nil {
		t.Fatalf("go list -deps %s: %v", pkg, err)
	}
	return strings.Fields(string(out))
}

// TestCINamesOnlyExistingTests keeps the CI workflow's -run patterns
// honest: every top-level test a pattern names (the part of an
// alternative before its first "/") must be declared in some _test.go
// file of the repository, so a deleted or renamed test cannot leave a
// CI step that quietly runs nothing.
func TestCINamesOnlyExistingTests(t *testing.T) {
	ci, err := os.ReadFile("../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	testFunc := regexp.MustCompile(`(?m)^func (Test\w*)\(`)
	err = filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != ".." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	run := regexp.MustCompile(`-run\s+(?:'([^']*)'|"([^"]*)"|(\S+))`)
	name := regexp.MustCompile(`^Test\w*$`)
	checked := 0
	for _, m := range run.FindAllStringSubmatch(string(ci), -1) {
		for _, alt := range strings.Split(m[1]+m[2]+m[3], "|") {
			top, _, _ := strings.Cut(strings.TrimSuffix(strings.TrimPrefix(alt, "^"), "$"), "/")
			if !name.MatchString(top) {
				continue
			}
			checked++
			if !declared[top] {
				t.Errorf("ci.yml runs %s, which no _test.go file declares", top)
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no test names in ci.yml's -run patterns")
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
