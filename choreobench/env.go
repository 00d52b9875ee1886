package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// env is one hosted choreod: a journaled store (per-append fsync off,
// the `choreoctl serve -data` default) behind server.New(st).Handler()
// on a 127.0.0.1 TCP listener, and one typed client over it that every
// benchmark client goroutine shares. Retries stay off: an error is a
// failed op.
type env struct {
	dir   string
	st    *store.Store
	hs    *http.Server
	done  chan struct{}
	tport *http.Transport
	cl    *server.Client
	tr    *tracer // nil on an untraced run
}

func openEnv(dir string, tr *tracer) (*env, error) {
	st, err := store.Open(store.WithJournal(dir))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	var h http.Handler = server.New(st).Handler()
	tport := http.DefaultTransport.(*http.Transport).Clone()
	tport.MaxIdleConnsPerHost = 16
	var rt http.RoundTripper = tport
	if tr != nil {
		h = tr.wrapHandler(h)
		rt = &tracingTransport{tr: tr, next: tport}
	}
	e := &env{
		dir:   dir,
		st:    st,
		hs:    &http.Server{Handler: h, ReadHeaderTimeout: time.Minute},
		done:  make(chan struct{}),
		tport: tport,
		cl:    server.NewClient("http://"+ln.Addr().String(), &http.Client{Transport: rt}),
		tr:    tr,
	}
	go func() {
		defer close(e.done)
		if err := e.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "choreobench: serve:", err)
		}
	}()
	return e, nil
}

// stop shuts the listener and store down without a checkpoint, as a
// crash would leave them, and waits for the serve loop to return. The
// client's idle connections close first: one the transport dialed but
// never used is new to the server, which would wait five seconds for
// its first request before shutting down.
func (e *env) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e.tport.CloseIdleConnections()
	err := e.hs.Shutdown(ctx)
	<-e.done
	if cerr := e.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// discard stops the env and deletes its data directory.
func (e *env) discard() error {
	err := e.stop()
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}
