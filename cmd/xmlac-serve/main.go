// xmlac-serve is the paper's untrusted document store: it keeps protected
// XML documents and range-serves each encrypted container, its manifest and
// fragment hashes over HTTP. It never evaluates a policy;
// every view runs in a client SOE (xmlac-view -url, xmlac.OpenRemote) that
// pulls only the ciphertext its policy needs.
//
// Quickstart:
//
//	xmlac-serve -addr :8080 -demo &
//	xmlac-view -url http://localhost:8080/docs/hospital -profile doctor:DrA
//	curl 'localhost:8080/metrics'
//
// Registering your own document (the server derives the key from the
// passphrase and protects the document; the client needs the same
// passphrase):
//
//	curl -X PUT -H 'X-Xmlac-Passphrase: secret' --data-binary @doc.xml \
//	     localhost:8080/docs/mydoc
//	xmlac-view -url http://localhost:8080/docs/mydoc -passphrase secret \
//	     -rules rules.txt -subject alice
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xmlac"
	"xmlac/internal/dataset"
	"xmlac/internal/server"
	"xmlac/internal/xmlstream"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	scheme := flag.String("scheme", string(xmlac.SchemeECBMHT), "default protection scheme (ecb, ecb-mht, cbc-sha, cbc-shac)")
	demo := flag.Bool("demo", false, "preload the hospital demo document")
	demoFolders := flag.Int("demo-folders", 100, "folders in the demo hospital document")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	dataDir := flag.String("data-dir", "", "durable storage directory (WAL + checkpoints); empty keeps the store in-memory")
	pprof := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	traceBuffer := flag.Int("trace-buffer", 0, "spans retained for GET /debug/trace (0 selects the default; negative disables tracing)")
	flag.Parse()

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xmlac-serve:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	defScheme, err := xmlac.ParseScheme(*scheme)
	if err != nil {
		fatal(logger, "parsing scheme", err)
	}
	srv, err := server.Open(server.Options{
		DefaultScheme:   defScheme,
		DataDir:         *dataDir,
		Logger:          logger,
		EnablePprof:     *pprof,
		TraceBufferSize: *traceBuffer,
	})
	if err != nil {
		fatal(logger, "opening server", err)
	}
	defer srv.Close()
	if *demo {
		// A recovered hospital document keeps its version chain, and remote
		// caches keep its clean chunks across a resync; re-registering it
		// would reset the chain and change every chunk, so the preload only
		// fills an absent document.
		if _, err := srv.Store().Entry("hospital"); err == nil {
			logger.Info("demo document recovered from data dir, preload skipped", "document", "hospital")
		} else {
			xml := xmlstream.SerializeTree(dataset.HospitalFolders(*demoFolders, 2026), false)
			if _, err := srv.RegisterDocument("hospital", xml, "", xmlac.SchemeECBMHT); err != nil {
				fatal(logger, "preloading the demo document", err)
			}
			logger.Info("demo document loaded", "document", "hospital", "folders", *demoFolders)
		}
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("xmlac-serve listening", "addr", *addr, "pprof", *pprof)
		errCh <- httpSrv.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(logger, "serving", err)
		}
	case sig := <-stop:
		logger.Info("draining on signal", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Error("shutdown", "error", err)
			os.Exit(1)
		}
		logger.Info("shutdown complete")
	}
}

// buildLogger resolves the -log-level and -log-format flags into a slog
// logger writing to stderr.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("invalid -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("invalid -log-format %q (want text or json)", format)
	}
}

func fatal(logger *slog.Logger, msg string, err error) {
	logger.Error(msg, "error", err)
	os.Exit(1)
}
