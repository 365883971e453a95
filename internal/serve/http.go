package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync/atomic"

	"gtfock/internal/metrics"
)

// API exposes a Peer's scheduler over HTTP (the hfd wire surface):
//
//	POST /v1/jobs             submit; 202 {"id"} | 503 reject | 400 bad spec | 413 body too large
//	GET  /v1/jobs/{id}        status snapshot
//	GET  /v1/jobs/{id}/events NDJSON progress stream until terminal
//	POST /v1/jobs/{id}/cancel explicit cancellation
//	GET  /v1/stats            admission/queue/RPC/stored-ERI counter snapshot
//	GET  /healthz             liveness (the process answers HTTP)
//	GET  /readyz              readiness (false while draining or before
//	                          the first registry sync)
//
// Every submission takes a registry lease first, and a status/events
// query for a job owned by ANOTHER peer answers 307 with the owner's
// address from the registry — the client follows the redirect and keeps
// its stream across adoptions instead of seeing a spurious 404.
type API struct {
	// Server is the Peer's scheduler (Peer.Server()): local job lookups
	// and the serve counters.
	Server *Server
	// RPC and Cache, when non-nil, are included in /v1/stats next to the
	// serve counters (a FleetRunner's RPC and Cache sets).
	RPC   *metrics.RPC
	Cache *metrics.Cache
	// Peer is required: it routes submissions through the registry and
	// resolves unknown job ids against it.
	Peer *Peer
}

// maxBody bounds a request body on both HTTP surfaces, the job API's
// submit and the registry's. A heartbeat that names every job a peer can
// hold is far below it.
const maxBody = 1 << 20

// readJSON decodes r's body, at most maxBody bytes of it, into v. On
// failure it returns the status to answer: 413 past the bound, else 400.
func readJSON(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return http.StatusOK, nil
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge, err
	}
	return http.StatusBadRequest, err
}

// Handler builds the route table.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", a.submit)
	mux.HandleFunc("GET /v1/jobs/{id}", a.status)
	mux.HandleFunc("GET /v1/jobs/{id}/events", a.events)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", a.cancel)
	mux.HandleFunc("GET /v1/stats", a.stats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", a.ready)
	return mux
}

// ready is the readiness probe: liveness says "the process answers",
// readiness says "route new work here". A draining or not-yet-synced
// peer is alive but not ready, which is exactly the window a load
// balancer must stop sending submissions for.
func (a *API) ready(w http.ResponseWriter, _ *http.Request) {
	ok, reason := a.Peer.Ready()
	code := http.StatusOK
	if !ok {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{"ready": ok, "reason": reason})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

type errBody struct {
	Error string `json:"error"`
	Cause string `json:"cause,omitempty"`
}

func (a *API) submit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if code, err := readJSON(w, r, &spec); err != nil {
		writeJSON(w, code, errBody{Error: "bad JSON: " + err.Error()})
		return
	}
	j, err := a.Peer.Submit(spec)
	if err != nil {
		var re *RejectError
		if errors.As(err, &re) {
			// Explicit overload refusal: the client must back off or
			// shed load itself; the server will not absorb it.
			cause := "queue_full"
			switch re.Cause {
			case RejectQuota:
				cause = "tenant_quota"
			case RejectMemory:
				cause = "memory_budget"
			}
			writeJSON(w, http.StatusServiceUnavailable, errBody{Error: re.Msg, Cause: cause})
			return
		}
		writeJSON(w, http.StatusBadRequest, errBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": j.ID})
}

func (a *API) job(w http.ResponseWriter, r *http.Request) *Job {
	j := a.Server.Job(r.PathValue("id"))
	if j == nil {
		a.miss(w, r, r.PathValue("id"))
	}
	return j
}

// miss resolves a job id the local scheduler does not know. The
// registry decides: owned elsewhere → 307 to the owner (the response a
// client's redirect follower handles transparently), terminal → the
// recorded outcome, between owners → 503 + Retry-After so the client
// re-asks after the adoption lands, unknown → 404.
func (a *API) miss(w http.ResponseWriter, r *http.Request, id string) {
	ownerAddr, rec, pending, err := a.Peer.Lookup(id)
	switch {
	case err != nil:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errBody{Error: "registry unavailable: " + err.Error()})
	case ownerAddr != "":
		atomic.AddInt64(&a.Server.met.OwnerRedirects, 1)
		http.Redirect(w, r, "http://"+ownerAddr+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	case pending:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errBody{Error: "job ownerless (adoption in flight)", Cause: "adopting"})
	case rec != nil:
		a.recorded(w, r, rec)
	default:
		writeJSON(w, http.StatusNotFound, errBody{Error: "unknown job"})
	}
}

// recorded serves a terminal registry record for a job no peer holds in
// memory: one past its owner's last keepHistory, or finished on a peer
// that has since restarted. The basis size is the scheduler's estimate
// of the recorded spec; a failed job's retries died with its run.
func (a *API) recorded(w http.ResponseWriter, r *http.Request, rec *JobRecord) {
	st := Status{
		ID: rec.ID, Tenant: rec.Spec.Tenant, Priority: rec.Spec.Priority,
		Molecule: rec.Spec.Molecule, Basis: rec.Spec.Basis,
		State: rec.State, Submitted: rec.Submitted, Result: rec.Result, Error: rec.Error,
	}
	if z, err := a.Server.cfg.Estimate(rec.Spec); err == nil {
		st.NumBF = z.NumBF
	}
	if rec.Result != nil {
		st.Retries = rec.Result.Retries
	}
	if strings.HasSuffix(r.URL.Path, "/events") {
		// Synthesize the one event that matters: the terminal state. The
		// live per-iteration stream died with its peer; what the client
		// must never lose is the outcome.
		w.Header().Set("Content-Type", "application/x-ndjson")
		ev := Event{Type: rec.State, Msg: rec.Error}
		if rec.Result != nil {
			ev.Energy = rec.Result.Energy
			ev.Iter = rec.Result.Iterations
		}
		json.NewEncoder(w).Encode(ev)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (a *API) status(w http.ResponseWriter, r *http.Request) {
	if j := a.job(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

// cancel answers the job's Status, as GET does: after the cancellation
// for a job this peer holds, the recorded one (miss) for any other.
func (a *API) cancel(w http.ResponseWriter, r *http.Request) {
	if j := a.job(w, r); j != nil {
		j.Cancel()
		writeJSON(w, http.StatusOK, j.Status())
	}
}

// events streams the job's progress as NDJSON, one Event per line,
// blocking until the job reaches a terminal state or the client leaves.
func (a *API) events(w http.ResponseWriter, r *http.Request) {
	j := a.job(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for from := 0; ; {
		evs, ok := j.EventsSince(from)
		if !ok {
			return
		}
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		from = evs[len(evs)-1].Seq + 1
		if flusher != nil {
			flusher.Flush()
		}
		if r.Context().Err() != nil {
			return
		}
	}
}

// StatsBody is the /v1/stats response and hfd's expvar blob: the serve,
// transport and stored-ERI counter sets side by side, each counter under
// its ledger name.
type StatsBody struct {
	metrics.Serve
	metrics.RPC
	metrics.Cache
}

// Stats snapshots the counters /v1/stats serves.
func (a *API) Stats() StatsBody {
	body := StatsBody{Serve: a.Server.met.Snapshot()}
	if a.RPC != nil {
		body.RPC = a.RPC.Snapshot()
	}
	if a.Cache != nil {
		body.Cache = a.Cache.Snapshot()
	}
	return body
}

func (a *API) stats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, a.Stats())
}
