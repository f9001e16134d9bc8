package stream

import "io"

// sliceSource replays pre-built batches, in the order given.
type sliceSource struct {
	batches []DayBatch
	i       int
}

// NewSliceSource returns a Source over in-memory batches, in the order
// given.
func NewSliceSource(batches []DayBatch) Source { return &sliceSource{batches: batches} }

func (s *sliceSource) Next() (DayBatch, error) {
	if s.i >= len(s.batches) {
		return DayBatch{}, io.EOF
	}
	b := s.batches[s.i]
	s.i++
	return b, nil
}
