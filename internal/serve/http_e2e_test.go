package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"gtfock/internal/metrics"
	netga "gtfock/internal/net"
)

// TestAPIStreamsRealJob runs one real SCF job through the HTTP surface
// of a lone hfd's peer:
// submit, follow the NDJSON event stream all the way to the terminal
// event (a regression test for the stream dying on iteration 1's NaN
// DeltaE), then read the final status. The stream must carry the
// per-iteration progress a client throttles or plots from.
func TestAPIStreamsRealJob(t *testing.T) {
	addrs := make([]string, 2)
	for i := 0; i < 2; i++ {
		ms, err := netga.NewMultiServer(2, i, 64, 64<<20)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := ms.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
		t.Cleanup(ms.Close)
	}
	sm := metrics.NewServe()
	runner := NewFleetRunner(addrs, t.TempDir())
	runner.Prow, runner.Pcol = 1, 2
	runner.Serve = sm
	_, hs := newLonePeer(t, Config{Capacity: 1, Runner: runner, Metrics: sm})

	resp, err := hs.Client().Post(hs.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"molecule":"CH4","basis":"sto-3g"}`))
	if err != nil {
		t.Fatal(err)
	}
	var idBody struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&idBody); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || idBody.ID == "" {
		t.Fatalf("submit: HTTP %d, id %q", resp.StatusCode, idBody.ID)
	}

	// The stream must end on its own (job terminal), after at least one
	// iteration event and a final done event — each line valid JSON.
	ev, err := hs.Client().Get(hs.URL + "/v1/jobs/" + idBody.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Body.Close()
	var types []string
	iterations := 0
	sc := bufio.NewScanner(ev.Body)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		types = append(types, e.Type)
		if e.Type == "iteration" {
			iterations++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if iterations == 0 {
		t.Errorf("stream %v carried no iteration events", types)
	}
	if len(types) == 0 || types[len(types)-1] != "done" {
		t.Errorf("stream %v did not end with done", types)
	}

	st, err := hs.Client().Get(hs.URL + "/v1/jobs/" + idBody.ID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(st.Body)
	st.Body.Close()
	var status Status
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatalf("status decode: %v (%s)", err, body)
	}
	if status.State != "done" || status.Result == nil || !status.Result.Converged {
		t.Fatalf("final status %s", body)
	}
	if status.Result.Iterations != iterations {
		t.Errorf("status says %d iterations, stream carried %d", status.Result.Iterations, iterations)
	}
}
