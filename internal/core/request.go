package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Request describes one prediction to make. Exactly one input form is
// used: a planned query (whose configured feature vector is extracted
// automatically) or a raw feature vector. When both are set the vector
// wins, so callers that already extracted features never pay for a second
// extraction.
//
// Request/Result is the canonical prediction surface: the serving layer,
// the CLIs, and the historical PredictQuery/PredictVector/PredictBatch
// wrappers all funnel through Predict.
type Request struct {
	// Query is a planned (not executed) query; its feature vector is
	// extracted per the predictor's FeatureKind.
	Query *dataset.Query
	// Vector is a raw query feature vector, used as-is when non-nil.
	Vector []float64
}

// Result is the outcome of one Request: either a Prediction or the error
// that request failed with. Batch callers get one Result per Request,
// positionally, so a single malformed query never voids its neighbors'
// answers.
type Result struct {
	Prediction *Prediction
	Err        error
}

// Predict evaluates every request and returns one Result per request, in
// order. Requests fan out through parallel.For (a trained
// Predictor is immutable, so concurrent predictions are safe); results are
// positionally bit-identical to evaluating each request alone. A single
// request takes the serial path and starts no helper goroutine.
func (p *Predictor) Predict(reqs ...Request) []Result {
	defer obs.Span("core.predict_batch")()
	batchSize.Observe(float64(len(reqs)))
	out := make([]Result, len(reqs))
	parallel.For(len(reqs), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i].Prediction, out[i].Err = p.predictOne(reqs[i])
		}
	})
	return out
}

// predictOne resolves a request's feature vector and predicts from it.
func (p *Predictor) predictOne(r Request) (*Prediction, error) {
	f := r.Vector
	if f == nil {
		if r.Query == nil {
			return nil, ErrEmptyRequest
		}
		var err error
		f, err = queryFeature(r.Query, p.opt.Features)
		if err != nil {
			return nil, err
		}
	}
	if want := p.model.X.Cols; len(f) != want {
		return nil, fmt.Errorf("%w: vector has %d features, model was trained with %d", ErrDimension, len(f), want)
	}
	return p.predictVector(f)
}
