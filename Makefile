# Standard verify entry point: `make check` runs scripts/check.sh, the one
# copy of the gate (use the script directly where make is unavailable).
# The stage targets are aliases for `scripts/check.sh <stage>`; what each
# stage runs, and why, is documented there.

GO ?= go

STAGES = fmtcheck vet build test race racestress soakfailover fuzzseed ckptsmoke allocfloors benchsmoke linebudget apicallers

.PHONY: check $(STAGES) bench fmt

check:
	scripts/check.sh

$(STAGES):
	scripts/check.sh $@

bench:
	$(GO) test -bench . -benchtime 1x -run xxx ./...

fmt:
	gofmt -l .
