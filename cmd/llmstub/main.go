// Command llmstub serves a minimal OpenAI-compatible chat-completions
// API backed by the deterministic simulated model — the stand-in for a
// hosted LLM when exercising the remote backend end-to-end (websimd
// -model remote with REPRO_LLM_ENDPOINT pointing here; scripts/smoke.sh
// does exactly that).
//
//	llmstub [-addr 127.0.0.1:8091] [-fail N] [-latency 0ms]
//	        [-slow-every N] [-slow-latency 0ms]
//
// -fail makes the first N requests fail with 429 Too Many Requests, so
// a client's retry/backoff path can be observed against a live server.
// -slow-every injects tail latency: every Nth request additionally
// sleeps -slow-latency, giving a client's hedging path a real tail to
// cut.
//
// Like a hosted chat-completions API, the stub reads the messages array
// as one conversation and answers its last message with exactly one
// choice.
//
//	POST /chat/completions     the OpenAI-compatible completion call
//	POST /v1/chat/completions  alias, for endpoints configured with /v1
//	GET  /healthz
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/llm"
)

// The OpenAI-compatible wire subset (mirrors internal/llm/backend).
type chatRequest struct {
	Model    string        `json:"model"`
	Messages []chatMessage `json:"messages"`
}

type chatMessage struct {
	Role    string `json:"role"`
	Content string `json:"content"`
}

type chatChoice struct {
	Message chatMessage `json:"message"`
}

type chatResponse struct {
	Model   string       `json:"model"`
	Choices []chatChoice `json:"choices"`
}

type errorResponse struct {
	Error struct {
		Message string `json:"message"`
	} `json:"error"`
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8091", "listen address")
	fail := flag.Int64("fail", 0, "fail the first N completion requests with 429")
	latency := flag.Duration("latency", 0, "simulated per-request latency")
	slowEvery := flag.Int64("slow-every", 0, "every Nth request sleeps -slow-latency extra (0 = off)")
	slowLatency := flag.Duration("slow-latency", 0, "extra latency injected by -slow-every")
	flag.Parse()

	model := llm.NewSim()
	var served atomic.Int64

	complete := func(w http.ResponseWriter, r *http.Request) {
		n := served.Add(1)
		if *latency > 0 {
			time.Sleep(*latency)
		}
		if *slowEvery > 0 && *slowLatency > 0 && n%*slowEvery == 0 {
			// The injected tail: a hedged client should beat this by
			// racing a second (fast) request against it.
			time.Sleep(*slowLatency)
		}
		if n <= *fail {
			w.Header().Set("Retry-After", "0")
			writeJSON(w, http.StatusTooManyRequests, errorMessage("injected failure"))
			return
		}
		var req chatRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, errorMessage("malformed request: "+err.Error()))
			return
		}
		if len(req.Messages) == 0 {
			writeJSON(w, http.StatusBadRequest, errorMessage("no messages"))
			return
		}
		out, err := model.Complete(r.Context(), req.Messages[len(req.Messages)-1].Content)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorMessage(err.Error()))
			return
		}
		writeJSON(w, http.StatusOK, chatResponse{
			Model:   req.Model,
			Choices: []chatChoice{{Message: chatMessage{Role: "assistant", Content: out}}},
		})
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /chat/completions", complete)
	mux.HandleFunc("POST /v1/chat/completions", complete)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	srv := &http.Server{Addr: *addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	fmt.Printf("llmstub: serving simulated chat completions on %s (fail=%d, slow-every=%d)\n", *addr, *fail, *slowEvery)
	log.Fatal(srv.ListenAndServe())
}

func errorMessage(msg string) errorResponse {
	var e errorResponse
	e.Error.Message = msg
	return e
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
