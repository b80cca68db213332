// Package noresign exercises the noresign analyzer. The harness loads
// it under the import path tsr/internal/edge, so the file poses as
// edge code: the signing half of internal/keys must be flagged and
// the verify half must pass untouched.
package noresign

import "tsr/internal/keys"

type replica struct {
	ring   *keys.Ring
	signer *keys.Pair // want `signing API keys\.Pair`
	memo   *keys.Memo // want `signing API keys\.Memo`
}

func provision(r *replica) error {
	pair, err := keys.Generate("edge-0") // want `signing API keys\.Generate`
	if err != nil {
		return err
	}
	if _, err := pair.Sign([]byte("index")); err != nil { // want `signing API keys\.Sign`
		return err
	}
	r.memo = keys.NewMemo(pair)          // want `signing API keys\.NewMemo`
	pem, err := pair.MarshalPrivatePEM() // want `signing API keys\.MarshalPrivatePEM`
	if err != nil {
		return err
	}
	_, err = keys.ParsePrivatePEM("edge-0", pem) // want `signing API keys\.ParsePrivatePEM`
	return err
}

// verify is what an edge is for: the verify half of internal/keys is
// untouched by the analyzer.
func verify(r *replica, data, sig []byte) error {
	_, err := r.ring.VerifyAny(data, sig)
	return err
}

func trust(pub *keys.Public) *keys.Ring {
	return keys.NewRing(pub)
}
