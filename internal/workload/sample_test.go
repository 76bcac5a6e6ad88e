package workload

import "testing"

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	for i := 10; i >= 1; i-- {
		s.Observe(float64(i))
	}
	if s.Quantile(0.5) != 5 {
		t.Fatalf("median = %v, want 5", s.Quantile(0.5))
	}
	if s.Quantile(0.9) != 9 {
		t.Fatalf("p90 = %v, want 9", s.Quantile(0.9))
	}
	if s.Quantile(0) != 1 || s.Quantile(1) != 10 {
		t.Fatal("extreme quantiles wrong")
	}
	if s.Mean() != 5.5 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Max() != 10 {
		t.Fatalf("max = %v", s.Max())
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.Max() != 0 || s.Count() != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestSampleObserveAfterQuantile(t *testing.T) {
	var s Sample
	s.Observe(5)
	_ = s.Quantile(0.5)
	s.Observe(1) // must re-sort
	if s.Quantile(0) != 1 {
		t.Fatal("sample not re-sorted after new observation")
	}
}
