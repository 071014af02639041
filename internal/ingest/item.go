package ingest

import (
	"io"

	transport "agingmf/internal/source"
)

// ParseItem parses one fleet wire line — a single sample or a "batch;"
// frame — into a transport item: the source.ParseFunc of the wire
// protocol, shared by every line-reading command.
func ParseItem(line string) (transport.Item, error) {
	if IsBatchLine(line) {
		b, err := ParseBatch(line)
		if err != nil {
			return transport.Item{}, err
		}
		return transport.Item{Source: b.Source, Pairs: b.Pairs}, nil
	}
	s, err := ParseLine(line)
	if err != nil {
		return transport.Item{}, err
	}
	return transport.Item{Source: s.Source, Pairs: [][2]float64{{s.Free, s.Swap}}}, nil
}

// NewLineSource reads the fleet wire protocol from r — the stdin source
// of cmd/agingmon and the per-connection shape of the daemon transports.
func NewLineSource(r io.Reader) *transport.LineSource {
	return transport.NewLines(r, ParseItem)
}

// RegistrySink feeds transport items into a sharded fleet registry —
// the ingestion Sink. Items keep their own source identity; each item
// is one unit of shard work (one shard handoff per item).
type RegistrySink struct {
	// Reg is the destination registry.
	Reg *Registry
	// Default keys items that carry no source of their own, exactly as
	// a transport supplies the peer host on the wire.
	Default string
}

func (s *RegistrySink) Write(it transport.Item) error {
	if len(it.Pairs) == 0 {
		return nil
	}
	id := it.Source
	if id == "" {
		id = s.Default
	}
	return s.Reg.IngestBatch(Batch{Source: id, Pairs: it.Pairs})
}

func (s *RegistrySink) Close() error { return nil }
