package store

import (
	"io"
	"net/http"
)

// Handler serves the content-addressed cache protocol over b (normally
// a DiskStore): GET and PUT on /{fingerprint}/{arch}/{seed}/{index}, and
// HEAD, which net/http answers through the GET route with the body
// dropped.
// Mount it under a prefix with http.StripPrefix — the serve daemon
// exposes it at /cache/, and `fairbench cachesrv` is a standalone
// process that is nothing but this handler plus /healthz.
//
// The server is as paranoid as the client: a PUT body is decoded and
// fully verified against the key in the URL before it is stored (422 on
// any mismatch), and a GET re-encodes only payloads that passed the
// backend's own verified read — so a corrupt upload never lands and a
// corrupt stored entry is never served, regardless of which side checks
// first.
//
// Protocol:
//
//	GET    200 entry JSON | 400 bad key | 404 miss (or stored-but-unverifiable)
//	HEAD   GET's status, no body
//	PUT    204 stored | 400 bad key | 422 entry fails verification
func Handler(b Backend) http.Handler {
	mux := http.NewServeMux()
	key := func(r *http.Request) (Key, bool) {
		k := ParseKeyFields(r.PathValue("fp"), r.PathValue("arch"),
			r.PathValue("seed"), r.PathValue("index"))
		return k, k != Key{}
	}
	mux.HandleFunc("GET /{fp}/{arch}/{seed}/{index}", func(w http.ResponseWriter, r *http.Request) {
		k, ok := key(r)
		if !ok {
			http.Error(w, "store: malformed cache key", http.StatusBadRequest)
			return
		}
		payload, ok := b.Get(k)
		if !ok {
			http.Error(w, "store: no verified entry", http.StatusNotFound)
			return
		}
		data, err := EncodeEntry(k, payload)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
	mux.HandleFunc("PUT /{fp}/{arch}/{seed}/{index}", func(w http.ResponseWriter, r *http.Request) {
		k, ok := key(r)
		if !ok {
			http.Error(w, "store: malformed cache key", http.StatusBadRequest)
			return
		}
		data, err := io.ReadAll(io.LimitReader(r.Body, maxEntryBytes))
		if err != nil {
			http.Error(w, "store: reading entry", http.StatusBadRequest)
			return
		}
		payload, err := DecodeEntry(k, data)
		if err != nil {
			// Never store what doesn't verify — the uploader recomputes
			// or retries; the cache stays clean either way.
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		if err := b.Put(k, payload); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}
