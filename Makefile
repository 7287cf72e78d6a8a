# Convenience wrappers around the verification gate. `make check` is the
# single entry point CI uses (scripts/check.sh); the other targets run its
# stages individually.

.PHONY: check build test race lint fuzz bench

check:
	./scripts/check.sh

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

lint:
	go run ./cmd/erlint ./...

fuzz:
	go test -run='^$$' -fuzz=FuzzLoadCSV -fuzztime=10s ./internal/dataset
	go test -run='^$$' -fuzz=FuzzTokenize -fuzztime=10s ./internal/textproc
	go test -run='^$$' -fuzz=FuzzBuildCorpus -fuzztime=10s ./internal/textproc

bench:
	go test -bench=. -benchmem -run='^$$' .
