package scenario

import (
	"strings"
	"testing"
)

// validSpec is a minimal runnable flnet spec the hostile cases mutate from.
const validSpec = `{
  "schema": "ecofl/scenario/v1",
  "name": "t",
  "topology": "flnet",
  "seed": 1,
  "fleet": {"clients": 2, "dataset_size": 100},
  "aggregation": {"alpha": 0.5},
  "run": {"rounds": 1}
}`

func TestParseValidSpec(t *testing.T) {
	spec, err := Parse([]byte(validSpec))
	if err != nil {
		t.Fatalf("Parse(valid) = %v", err)
	}
	if spec.Name != "t" || spec.Topology != TopologyFLNet || spec.Fleet.Clients != 2 {
		t.Fatalf("Parse mangled the spec: %+v", spec)
	}
}

// TestParseHostileSpecs drives the loader with malformed and out-of-range
// specs: every one must fail closed with an error naming the problem.
func TestParseHostileSpecs(t *testing.T) {
	cases := []struct {
		name    string
		json    string
		wantErr string
	}{
		{"garbage", `{{{`, "invalid character"},
		{"unknown field", `{"name":"t","topology":"fl","turbo":true}`, "unknown field"},
		{"wrong schema", `{"schema":"ecofl/scenario/v99","name":"t","topology":"fl"}`, `schema "ecofl/scenario/v99"`},
		{"missing name", `{"topology":"fl"}`, "name must be set"},
		{"missing topology", `{"name":"t"}`, "topology must be set"},
		{"unknown topology", `{"name":"t","topology":"mesh"}`, `unknown topology "mesh"`},
		{"zero clients", `{"name":"t","topology":"fl","fleet":{"clients":0}}`, "fleet.clients must be positive"},
		{"negative clients", `{"name":"t","topology":"fl","fleet":{"clients":-3}}`, "fleet.clients must be positive"},
		{"unknown dataset", `{"name":"t","topology":"fl","fleet":{"clients":2,"dataset":"imagenet"}}`, `unknown fleet.dataset "imagenet"`},
		{"negative dataset size", `{"name":"t","topology":"fl","fleet":{"clients":2,"dataset_size":-1}}`, "dataset_size must not be negative"},
		{"missing strategy", `{"name":"t","topology":"fl","fleet":{"clients":2},"run":{"duration_s":10}}`, "aggregation.strategy must be set"},
		{"unknown strategy", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"sgd"},"run":{"duration_s":10}}`, `unknown aggregation.strategy "sgd"`},
		{"alpha out of range", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg","alpha":1.5},"run":{"duration_s":10}}`, "aggregation.alpha must be in [0, 1]"},
		{"negative mu", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg","mu":-0.1},"run":{"duration_s":10}}`, "aggregation.mu must not be negative"},
		{"dropout prob > 1", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg","dropout_prob":2},"run":{"duration_s":10}}`, "dropout_prob must be in [0, 1]"},
		{"quorum > 1", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg","quorum":1.1},"run":{"duration_s":10}}`, "quorum must be in [0, 1]"},
		{"unknown codec", `{"name":"t","topology":"flnet","fleet":{"clients":2},"wire":{"codec":"zstd"},"run":{"rounds":1}}`, `unknown wire.codec "zstd"`},
		{"unknown wire mode", `{"name":"t","topology":"flnet","fleet":{"clients":2},"wire":{"mode":"json"},"run":{"rounds":1}}`, `unknown field "mode"`},
		{"negative topk", `{"name":"t","topology":"flnet","fleet":{"clients":2},"wire":{"top_k":-5},"run":{"rounds":1}}`, "wire.top_k must not be negative"},
		{"bad fault mode", `{"name":"t","topology":"flnet","fleet":{"clients":2},"faults":[{"mode":"earthquake","prob":0.5}],"run":{"rounds":1}}`, "earthquake"},
		{"fault prob > 1", `{"name":"t","topology":"flnet","fleet":{"clients":2},"faults":[{"mode":"drop","prob":1.5}],"run":{"rounds":1}}`, "faults[0].prob must be in [0, 1]"},
		{"negative stall", `{"name":"t","topology":"flnet","fleet":{"clients":2},"faults":[{"mode":"stall","prob":0.1,"stall_ms":-200}],"run":{"rounds":1}}`, "durations must not be negative"},
		{"negative fault client", `{"name":"t","topology":"flnet","fleet":{"clients":2},"faults":[{"mode":"drop","prob":0.1,"clients":[-1]}],"run":{"rounds":1}}`, "negative id -1"},
		{"unknown churn model", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"},"churn":{"model":"lunar"},"run":{"duration_s":10}}`, `unknown churn.model "lunar"`},
		{"churn on pipeline", `{"name":"t","topology":"pipeline","churn":{"model":"diurnal","duty_cycle":0.5},"run":{"rounds":1}}`, "churn is not supported on the pipeline topology"},
		{"churn duty cycle > 1", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"},"churn":{"model":"diurnal","duty_cycle":1.5},"run":{"duration_s":10}}`, "churn.duty_cycle must be in [0, 1]"},
		{"diurnal zero duty cycle", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"},"churn":{"model":"diurnal"},"run":{"duration_s":10}}`, "churn.duty_cycle must be positive for the diurnal model"},
		{"negative churn period", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"},"churn":{"model":"diurnal","duty_cycle":0.5,"period_s":-1}}`, "churn.period_s must not be negative"},
		{"sessions without means", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"},"churn":{"model":"sessions"},"run":{"duration_s":10}}`, "churn.mean_online_s and churn.mean_offline_s must be positive"},
		{"trace without file", `{"name":"t","topology":"flnet","fleet":{"clients":2},"churn":{"model":"trace"},"run":{"rounds":1}}`, "churn.trace_file must be set for the trace model"},
		{"trace file on diurnal", `{"name":"t","topology":"flnet","fleet":{"clients":2},"churn":{"model":"diurnal","duty_cycle":0.5,"trace_file":"x.json"},"run":{"rounds":1}}`, "churn.trace_file is only valid with the trace model"},
		{"negative lease ttl", `{"name":"t","topology":"flnet","fleet":{"clients":2},"churn":{"lease_ttl_s":-3},"run":{"rounds":1}}`, "churn.lease_ttl_s must not be negative"},
		{"attack without mode", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"},"attack":{"fraction":0.3},"run":{"duration_s":10}}`, "attack.mode must be set"},
		{"unknown attack mode", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"},"attack":{"fraction":0.3,"mode":"ddos"},"run":{"duration_s":10}}`, `unknown attack.mode "ddos"`},
		{"attack fraction > 1", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"},"attack":{"fraction":1.5,"mode":"sign-flip"},"run":{"duration_s":10}}`, "attack.fraction must be in [0, 1]"},
		{"negative attack scale", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"},"attack":{"fraction":0.3,"mode":"sign-flip","scale":-2},"run":{"duration_s":10}}`, "attack.scale must not be negative"},
		{"attack on pipeline", `{"name":"t","topology":"pipeline","attack":{"fraction":0.3,"mode":"sign-flip"},"run":{"rounds":1}}`, "attack is not supported on the pipeline topology"},
		{"stray attack params", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"},"attack":{"mode":"sign-flip"},"run":{"duration_s":10}}`, "attack parameters set without"},
		{"unknown defense aggregator", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"},"attack":{"fraction":0.3,"mode":"sign-flip","defense":{"aggregator":"blockchain"}},"run":{"duration_s":10}}`, `unknown aggregator "blockchain"`},
		{"defense aggregator on flnet", `{"name":"t","topology":"flnet","fleet":{"clients":2},"attack":{"fraction":0.3,"mode":"sign-flip","defense":{"aggregator":"median"}},"run":{"rounds":1}}`, "attack.defense.aggregator is only supported on the fl topology"},
		{"defense trim out of range", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"},"attack":{"fraction":0.3,"mode":"sign-flip","defense":{"aggregator":"trimmed","trim":0.5}},"run":{"duration_s":10}}`, "attack.defense.trim must be in [0, 0.5)"},
		{"norm gate on fl", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"},"attack":{"fraction":0.3,"mode":"sign-flip","defense":{"norm_gate":true}},"run":{"duration_s":10}}`, "attack.defense.norm_gate is only supported on the flnet topology"},
		{"fl without duration", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"}}`, "run.duration_s must be positive for the fl topology"},
		{"negative duration", `{"name":"t","topology":"fl","fleet":{"clients":2},"aggregation":{"strategy":"fedavg"},"run":{"duration_s":-5}}`, "run.duration_s must not be negative"},
		{"flnet without rounds", `{"name":"t","topology":"flnet","fleet":{"clients":2}}`, "run.rounds must be positive for the flnet topology"},
		{"pipeline without rounds", `{"name":"t","topology":"pipeline"}`, "run.rounds must be positive for the pipeline topology"},
		{"negative rounds", `{"name":"t","topology":"flnet","fleet":{"clients":2},"run":{"rounds":-1}}`, "run.rounds must not be negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.json))
			if err == nil {
				t.Fatalf("Parse accepted hostile spec %s", tc.json)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestFaultAppliesTo(t *testing.T) {
	all := FaultSpec{}
	if !all.appliesTo(0) || !all.appliesTo(99) {
		t.Fatal("empty client list must cover every client")
	}
	some := FaultSpec{Clients: []int{1, 3}}
	if some.appliesTo(0) || !some.appliesTo(3) {
		t.Fatal("explicit client list must cover exactly its members")
	}
}

func TestFaultPlanSeedsAreIndependent(t *testing.T) {
	f := FaultSpec{Prob: 0.5}
	a, b := f.plan(1, 0), f.plan(1, 1)
	if a.Seed == b.Seed {
		t.Fatal("different clients must get different chaos seeds")
	}
	if a2 := f.plan(1, 0); a2.Seed != a.Seed {
		t.Fatal("chaos seeds must be reproducible for the same scenario seed")
	}
}
