#!/usr/bin/env bash
# Wire smoke of the read API against a running daemon:
#
#   scripts/wire-smoke.sh BASE REPO
#
# BASE is a tsrd or tsredge base URL and REPO a refreshed (or synced)
# repository id. Both daemons serve the one read-route implementation
# (tsr.RegisterReadRoutes), so CI runs the same checks over each socket:
# gzip-negotiated index, chunk manifest, verified 206 with If-Range.
set -euo pipefail
base=$1 repo=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cd "$tmp"

# gzip changes the wire bytes, never the signed form: encoding
# negotiated, ETag + signature headers byte-identical, and the
# decompressed body identical to the identity transfer.
curl -sf -D id.headers "$base/repos/$repo/index" -o index.identity
curl -sf -D gz.headers -H 'Accept-Encoding: gzip' "$base/repos/$repo/index" -o index.gz
grep -qi '^content-encoding: gzip' gz.headers
grep -i '^etag\|^x-tsr-key-name\|^x-tsr-signature' id.headers | sort > id.sig
grep -i '^etag\|^x-tsr-key-name\|^x-tsr-signature' gz.headers | sort > gz.sig
test "$(wc -l < id.sig)" -eq 3
cmp id.sig gz.sig
gunzip -c index.gz | cmp - index.identity
test "$(stat -c %s index.gz)" -lt "$(stat -c %s index.identity)"

# Chunk manifest + verified 206 over a real package: the 206 carries
# the FULL representation's strong ETag and exactly the requested slice
# of the verified bytes.
pkg=$(awk '/^package = /{print $3; exit}' index.identity)
test -n "$pkg"
curl -sf "$base/repos/$repo/packages/$pkg/chunks" | grep -q '"chunks"'
curl -sf -D full.headers "$base/repos/$repo/packages/$pkg" -o full.bin
etag=$(tr -d '\r' < full.headers | awk 'tolower($1)=="etag:"{print $2}')
test -n "$etag"
curl -sf -D range.headers -H 'Range: bytes=0-9' -H "If-Range: $etag" \
  "$base/repos/$repo/packages/$pkg" -o part.bin
grep -q ' 206' range.headers
grep -qi "^content-range: bytes 0-9/$(stat -c %s full.bin)" range.headers
tr -d '\r' < range.headers | awk 'tolower($1)=="etag:"{print $2}' | grep -qxF "$etag"
head -c 10 full.bin | cmp - part.bin
echo "wire smoke ok: $base/repos/$repo ($pkg)"
