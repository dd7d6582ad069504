package incident

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/session"
)

// API mounts the incident pipeline under /v1 as a session.Extension:
//
//	POST /v1/incidents                file an incident
//	GET  /v1/incidents                list incidents (paginated envelope)
//	GET  /v1/incidents/{id}           full record incl. event log
//	POST /v1/incidents/{id}/resolve   manually resolve (409 invalid_state if terminal)
//	POST /v1/incidents/{id}/escalate  manually escalate (409 invalid_state if terminal)
//
// and contributes the `incidents` block to GET /v1/stats. Errors use
// the standard {"error":{"code","message"}} envelope; illegal lifecycle
// transitions map to 409 with the invalid_state code, and a duplicate
// incident ID to 409 conflict. See API.md.
type API struct {
	Store *Store
	// Proc contributes the leader/follower counters to the stats block;
	// nil when the pipeline is mounted store-only (no processor).
	Proc *Processor
}

// PipelineStats is the `incidents` block of GET /v1/stats: the queue
// gauges and lifecycle totals plus the processor's leader/follower
// dedup counters.
type PipelineStats struct {
	Stats
	ProcessorStats
}

// TransitionRequest is the body of the manual resolve/escalate routes.
type TransitionRequest struct {
	// Note records why; it becomes the resolution text (resolve) or the
	// escalation event detail (escalate).
	Note string `json:"note,omitempty"`
}

// StatsBlock implements session.Extension.
func (a *API) StatsBlock() (string, any) {
	ps := PipelineStats{Stats: a.Store.Stats()}
	if a.Proc != nil {
		ps.ProcessorStats = a.Proc.Stats()
	}
	return "incidents", ps
}

// MountRoutes implements session.Extension.
func (a *API) MountRoutes(handle func(pattern string, h http.HandlerFunc)) {
	handle("POST /incidents", a.file)
	handle("GET /incidents", a.list)
	handle("GET /incidents/{id}", a.get)
	handle("POST /incidents/{id}/resolve", a.transition(StatusResolved))
	handle("POST /incidents/{id}/escalate", a.transition(StatusEscalated))
}

func (a *API) file(w http.ResponseWriter, r *http.Request) {
	var f Filing
	if err := session.DecodeJSON(r, &f); err != nil {
		session.WriteErrorCode(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	inc, err := a.Store.File(f)
	switch {
	case errors.Is(err, ErrExists):
		writeError(w, err)
		return
	case err != nil:
		session.WriteErrorCode(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	session.WriteJSON(w, http.StatusCreated, inc)
}

func (a *API) list(w http.ResponseWriter, r *http.Request) {
	after, limit, err := session.PageArgs(r)
	if err != nil {
		session.WriteErrorCode(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	status := Status(r.URL.Query().Get("status"))
	switch status {
	case "", StatusOpen, StatusClaimed, StatusInvestigating, StatusResolved, StatusEscalated:
	default:
		session.WriteErrorCode(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("unknown status %q", status))
		return
	}
	page := session.Paginate(a.Store.List(status), func(inc Incident) string { return inc.ID }, after, limit)
	session.WriteJSON(w, http.StatusOK, page)
}

func (a *API) get(w http.ResponseWriter, r *http.Request) {
	inc, err := a.Store.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	session.WriteJSON(w, http.StatusOK, inc)
}

// transition returns the handler for a manual terminal transition.
func (a *API) transition(to Status) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req TransitionRequest
		if err := session.DecodeJSON(r, &req); err != nil {
			session.WriteErrorCode(w, http.StatusBadRequest, "bad_request", err.Error())
			return
		}
		note := req.Note
		if note == "" {
			note = "manually " + string(to) + " by operator"
		}
		inc, err := a.Store.Transition(r.PathValue("id"), to, note)
		if err != nil {
			writeError(w, err)
			return
		}
		session.WriteJSON(w, http.StatusOK, inc)
	}
}

// writeError maps incident errors onto the standard envelope, deferring
// to the session table for everything it does not own.
func writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNotFound):
		session.WriteErrorCode(w, http.StatusNotFound, "not_found", err.Error())
	case errors.Is(err, ErrInvalidState):
		session.WriteErrorCode(w, http.StatusConflict, "invalid_state", err.Error())
	case errors.Is(err, ErrExists):
		session.WriteErrorCode(w, http.StatusConflict, "conflict", err.Error())
	default:
		session.WriteError(w, err)
	}
}
