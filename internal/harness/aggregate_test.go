package harness

import "testing"

func TestRunAggregate16BitSpecs(t *testing.T) {
	for _, spec := range SpecsFPR16() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			res := RunAggregate(spec, 1<<13, 21)
			if res.Failed {
				t.Fatalf("%s: aggregate run failed", spec.Name)
			}
			if res.InsertMops <= 0 || res.PosLookupMops <= 0 ||
				res.RandLookupMops <= 0 || res.DeleteMops <= 0 {
				t.Fatalf("%s: nonpositive throughput: %+v", spec.Name, res)
			}
		})
	}
}

func TestRunAggregateBloomSkipsDeletes(t *testing.T) {
	res := RunAggregate(SpecBloom8(), 1<<13, 23)
	if res.Failed {
		t.Fatal("bloom aggregate failed")
	}
	if res.DeleteMops != 0 {
		t.Errorf("no-delete filter reported delete throughput %f", res.DeleteMops)
	}
	if res.InsertMops <= 0 {
		t.Error("bloom insert throughput nonpositive")
	}
}
