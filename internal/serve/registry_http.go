package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// RegistryAPI exposes a Registry over HTTP so N hfd peers can share it:
//
//	POST /reg/v1/create     register a job, lease to the submitter
//	POST /reg/v1/heartbeat  renew all of one peer's leases; returns lost ids
//	POST /reg/v1/acquire    adopt an orphaned job (fenced, one winner)
//	POST /reg/v1/release    give ownership back (graceful drain)
//	POST /reg/v1/finish     record a terminal outcome (fenced)
//	GET  /reg/v1/orphans    active jobs with no live lease
//	GET  /reg/v1/jobs/{id}  one record
//	GET  /reg/v1/jobs       all records
//	GET  /reg/v1/stats      registry counters
//
// Lease violations travel as stable reason strings and are mapped back
// to the sentinel errors on the client, so errors.Is(err, ErrFenceLost)
// holds across the wire. A request body past maxBody answers 413.
type RegistryAPI struct {
	Reg *Registry
}

// regReq is the request body shared by the mutating endpoints.
type regReq struct {
	Spec      JobSpec           `json:"spec,omitempty"`
	ID        string            `json:"id,omitempty"`
	IDs       []string          `json:"ids,omitempty"`
	Owner     string            `json:"owner,omitempty"`
	OwnerAddr string            `json:"owner_addr,omitempty"`
	Inc       uint64            `json:"inc,omitempty"`
	Fence     uint64            `json:"fence,omitempty"`
	Held      map[string]uint64 `json:"held,omitempty"`
	Ckpt      string            `json:"ckpt,omitempty"`
	State     string            `json:"state,omitempty"`
	Result    *JobResult        `json:"result,omitempty"`
	ErrMsg    string            `json:"err_msg,omitempty"`
	Seq       int               `json:"seq,omitempty"`
}

// regResp is the response body. Reason is one of the stable lease-error
// strings when OK is false.
type regResp struct {
	OK     bool       `json:"ok"`
	Reason string     `json:"reason,omitempty"`
	ID     string     `json:"id,omitempty"`
	Fence  uint64     `json:"fence,omitempty"`
	Lost   []string   `json:"lost,omitempty"`
	IDs    []string   `json:"ids,omitempty"`
	Rec    *JobRecord `json:"rec,omitempty"`
	// Finished is the time finish stamped the record with.
	Finished *time.Time `json:"finished,omitempty"`
}

const (
	reasonUnknown  = "unknown_job"
	reasonHeld     = "lease_held"
	reasonFence    = "fence_lost"
	reasonTerminal = "terminal"
)

func leaseReason(err error) string {
	switch {
	case errors.Is(err, ErrUnknownJob):
		return reasonUnknown
	case errors.Is(err, ErrLeaseHeld):
		return reasonHeld
	case errors.Is(err, ErrFenceLost):
		return reasonFence
	case errors.Is(err, ErrTerminal):
		return reasonTerminal
	}
	return ""
}

func reasonErr(reason, msg string) error {
	switch reason {
	case reasonUnknown:
		return ErrUnknownJob
	case reasonHeld:
		return ErrLeaseHeld
	case reasonFence:
		return ErrFenceLost
	case reasonTerminal:
		return ErrTerminal
	}
	return errors.New("serve: registry: " + msg)
}

// Handler builds the registry route table.
func (a *RegistryAPI) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /reg/v1/create", a.create)
	mux.HandleFunc("POST /reg/v1/heartbeat", a.heartbeat)
	mux.HandleFunc("POST /reg/v1/acquire", a.acquire)
	mux.HandleFunc("POST /reg/v1/release", a.release)
	mux.HandleFunc("POST /reg/v1/finish", a.finish)
	mux.HandleFunc("GET /reg/v1/orphans", a.orphans)
	mux.HandleFunc("GET /reg/v1/jobs/{id}", a.get)
	mux.HandleFunc("GET /reg/v1/jobs", a.list)
	mux.HandleFunc("GET /reg/v1/stats", a.stats)
	return mux
}

func decodeReq(w http.ResponseWriter, r *http.Request) (*regReq, bool) {
	var req regReq
	if code, err := readJSON(w, r, &req); err != nil {
		writeJSON(w, code, regResp{Reason: "bad_json: " + err.Error()})
		return nil, false
	}
	return &req, true
}

// writeLeaseErr reports a lease violation. These are application-level
// outcomes, not transport failures, so they travel as 200 + reason — a
// peer must distinguish "you lost the race" from "the registry is down".
// Anything that is NOT one of the lease sentinels (a WAL append failure,
// say) travels as a 500 with its message, so a disk failure looks like a
// retriable transport-class error instead of a contentless lease race.
func writeLeaseErr(w http.ResponseWriter, err error) {
	reason := leaseReason(err)
	if reason == "" {
		writeJSON(w, http.StatusInternalServerError, regResp{Reason: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, regResp{OK: false, Reason: reason})
}

func (a *RegistryAPI) create(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeReq(w, r)
	if !ok {
		return
	}
	id, fence, err := a.Reg.Create(req.Spec, req.Owner, req.OwnerAddr, req.Inc, req.Ckpt)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, regResp{Reason: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, regResp{OK: true, ID: id, Fence: fence})
}

func (a *RegistryAPI) heartbeat(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeReq(w, r)
	if !ok {
		return
	}
	lost := a.Reg.Heartbeat(req.Owner, req.Inc, req.Held)
	writeJSON(w, http.StatusOK, regResp{OK: true, Lost: lost})
}

func (a *RegistryAPI) acquire(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeReq(w, r)
	if !ok {
		return
	}
	rec, err := a.Reg.Acquire(req.ID, req.Owner, req.OwnerAddr, req.Inc)
	if err != nil {
		writeLeaseErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, regResp{OK: true, Fence: rec.Fence, Rec: &rec})
}

func (a *RegistryAPI) release(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeReq(w, r)
	if !ok {
		return
	}
	ids := a.Reg.Release(req.Owner, req.Inc, req.IDs)
	writeJSON(w, http.StatusOK, regResp{OK: true, IDs: ids})
}

func (a *RegistryAPI) finish(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeReq(w, r)
	if !ok {
		return
	}
	at, err := a.Reg.FinishEvent(req.ID, req.Owner, req.Inc, req.Fence, req.State, req.Result, req.ErrMsg, req.Seq)
	if err != nil {
		writeLeaseErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, regResp{OK: true, Finished: &at})
}

func (a *RegistryAPI) orphans(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, a.Reg.Orphans())
}

func (a *RegistryAPI) get(w http.ResponseWriter, r *http.Request) {
	rec, ok := a.Reg.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, regResp{Reason: reasonUnknown})
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (a *RegistryAPI) list(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, a.Reg.List())
}

func (a *RegistryAPI) stats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, a.Reg.Stats())
}

// RegistryClient talks to a RegistryAPI. All methods are synchronous
// with a bounded per-call timeout; transport errors are returned as-is
// (retriable by the caller's loop), lease violations come back as the
// sentinel errors.
type RegistryClient struct {
	base string
	hc   *http.Client
}

// NewRegistryClient builds a client for the registry at addr
// (host:port or full http URL).
func NewRegistryClient(addr string, timeout time.Duration) *RegistryClient {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	base := addr
	if len(base) < 7 || base[:7] != "http://" {
		base = "http://" + base
	}
	return &RegistryClient{base: base, hc: &http.Client{Timeout: timeout}}
}

func (c *RegistryClient) post(path string, req *regReq) (*regResp, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hresp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer hresp.Body.Close()
	var resp regResp
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		return nil, err
	}
	if hresp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: registry %s: HTTP %d: %s", path, hresp.StatusCode, resp.Reason)
	}
	if !resp.OK {
		return nil, reasonErr(resp.Reason, resp.Reason)
	}
	return &resp, nil
}

// Create registers a job and leases it to (owner, inc).
func (c *RegistryClient) Create(spec JobSpec, owner, ownerAddr string, inc uint64, ckpt string) (string, uint64, error) {
	resp, err := c.post("/reg/v1/create", &regReq{Spec: spec, Owner: owner, OwnerAddr: ownerAddr, Inc: inc, Ckpt: ckpt})
	if err != nil {
		return "", 0, err
	}
	return resp.ID, resp.Fence, nil
}

// Heartbeat renews the held leases; returns the ids no longer held.
func (c *RegistryClient) Heartbeat(owner string, inc uint64, held map[string]uint64) ([]string, error) {
	resp, err := c.post("/reg/v1/heartbeat", &regReq{Owner: owner, Inc: inc, Held: held})
	if err != nil {
		return nil, err
	}
	return resp.Lost, nil
}

// Acquire adopts an orphan; ErrLeaseHeld means another peer won.
func (c *RegistryClient) Acquire(id, owner, ownerAddr string, inc uint64) (JobRecord, error) {
	resp, err := c.post("/reg/v1/acquire", &regReq{ID: id, Owner: owner, OwnerAddr: ownerAddr, Inc: inc})
	if err != nil {
		return JobRecord{}, err
	}
	return *resp.Rec, nil
}

// Release gives back ownership of ids (nil = everything held).
func (c *RegistryClient) Release(owner string, inc uint64, ids []string) ([]string, error) {
	resp, err := c.post("/reg/v1/release", &regReq{Owner: owner, Inc: inc, IDs: ids})
	if err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

// Finish records a terminal outcome (fenced) with the seq of its
// terminal event, and returns the time the registry stamped it with (see
// Registry.FinishEvent).
func (c *RegistryClient) Finish(id, owner string, inc, fence uint64, state string, res *JobResult, errMsg string, seq int) (time.Time, error) {
	resp, err := c.post("/reg/v1/finish", &regReq{ID: id, Owner: owner, Inc: inc, Fence: fence, State: state, Result: res, ErrMsg: errMsg, Seq: seq})
	if err != nil || resp.Finished == nil {
		return time.Time{}, err
	}
	return *resp.Finished, nil
}

// Orphans lists adoptable jobs.
func (c *RegistryClient) Orphans() ([]JobRecord, error) {
	var out []JobRecord
	return out, c.getJSON("/reg/v1/orphans", &out)
}

// Get fetches one record; ok=false when the registry does not know id.
func (c *RegistryClient) Get(id string) (JobRecord, bool, error) {
	hresp, err := c.hc.Get(c.base + "/reg/v1/jobs/" + id)
	if err != nil {
		return JobRecord{}, false, err
	}
	defer hresp.Body.Close()
	switch hresp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		io.Copy(io.Discard, hresp.Body)
		return JobRecord{}, false, nil
	default:
		return JobRecord{}, false, fmt.Errorf("serve: registry /reg/v1/jobs/%s: HTTP %d", id, hresp.StatusCode)
	}
	var rec JobRecord
	if err := json.NewDecoder(hresp.Body).Decode(&rec); err != nil {
		return JobRecord{}, false, err
	}
	return rec, true, nil
}

// List fetches all records.
func (c *RegistryClient) List() ([]JobRecord, error) {
	var out []JobRecord
	return out, c.getJSON("/reg/v1/jobs", &out)
}

// Stats fetches the registry counters.
func (c *RegistryClient) Stats() (RegistryStats, error) {
	var st RegistryStats
	return st, c.getJSON("/reg/v1/stats", &st)
}

func (c *RegistryClient) getJSON(path string, v any) error {
	hresp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve: registry %s: HTTP %d", path, hresp.StatusCode)
	}
	return json.NewDecoder(hresp.Body).Decode(v)
}
