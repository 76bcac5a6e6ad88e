package affinityaccept

import (
	"strings"
	"testing"
)

func TestFacadeSimulate(t *testing.T) {
	r := Simulate(RunConfig{
		Machine:      AMD48(),
		Cores:        2,
		Listen:       AffinityAccept,
		Server:       Lighttpd,
		ConnsPerCore: 16,
		WarmupS:      0.3,
		MeasureS:     0.3,
		Seed:         1,
	})
	if r.ReqPerSecPerCore <= 0 {
		t.Fatal("no throughput")
	}
	if r.Stack.Stats.RequestsLocal != r.Stack.Stats.Requests {
		t.Fatal("affinity-accept should process everything locally")
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	ids := Experiments()
	if len(ids) < 20 {
		t.Fatalf("only %d experiments", len(ids))
	}
	res, err := RunExperiment("T1", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ID() != "T1" || !strings.Contains(res.Render(), "AMD48") {
		t.Fatal("table 1 render wrong")
	}
	if _, err := RunExperiment("bogus", Options{}); err == nil {
		t.Fatal("bogus experiment should error")
	}
	if DescribeExperiment("T5") == "" {
		t.Fatal("missing description")
	}
}

func TestMachinePresets(t *testing.T) {
	if AMD48().Cores() != 48 || Intel80().Cores() != 80 {
		t.Fatal("machine presets wrong")
	}
}
