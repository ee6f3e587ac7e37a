package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
)

// faultHandler makes one successful /v1/search response wrong on purpose:
// "corrupt" scales the top answer's score, "stale" claims generation 0.
// The benchmark's tests run it to show the output check is not vacuous.
func faultHandler(h http.Handler, fault string) http.Handler {
	// claimed is held by the one request being tampered with, and stays
	// set once a tamper succeeded.
	var claimed atomic.Bool
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/search" || !claimed.CompareAndSwap(false, true) {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		var env map[string]any
		if rec.Code == http.StatusOK && json.Unmarshal(body, &env) == nil && tamper(env, fault) {
			body, _ = json.Marshal(env)
		} else {
			claimed.Store(false)
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// tamper applies fault to a decoded envelope, reporting whether it could.
func tamper(env map[string]any, fault string) bool {
	switch fault {
	case "stale":
		env["generation"] = 0
		return true
	case "corrupt":
		results, _ := env["results"].([]any)
		if len(results) == 0 {
			return false
		}
		top, _ := results[0].(map[string]any)
		score, ok := top["score"].(float64)
		if !ok {
			return false
		}
		top["score"] = score * 1.5
		return true
	}
	return false
}
