package server

import (
	"encoding/json"
	"expvar"
	"net/http"
	"reflect"
	"sort"
	"testing"
)

// TestExpvarKeysMatchStats: the expvar "groundd" object and the /v1/stats
// JSON carry exactly the same keys, store counters included.
func TestExpvarKeysMatchStats(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if expvar.Get("groundd") == nil { // PublishExpvar may run once per process
		s.PublishExpvar()
	}
	keys := func(raw []byte) []string {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	got, want := keys([]byte(expvar.Get("groundd").String())), keys(stats)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("expvar keys %v\n/v1/stats keys %v", got, want)
	}
	for _, k := range []string{"storeRecords", "storeDroppedWrites", "storeWriteErrors", "postMemoHits", "postMemoMisses"} {
		if i := sort.SearchStrings(got, k); i == len(got) || got[i] != k {
			t.Errorf("expvar lacks %s", k)
		}
	}
}
