package protocol

import (
	"encoding/binary"
	"reflect"
	"testing"
)

func TestStreamDecoderWholeFrame(t *testing.T) {
	var sd StreamDecoder
	m := sampleMessage()
	sd.Feed(Encode(m))
	got, err := sd.Next()
	if err != nil || got == nil {
		t.Fatalf("Next = %v, %v", got, err)
	}
	if got.Topic != m.Topic || got.Seq != m.Seq {
		t.Fatalf("decoded %+v", got)
	}
	if sd.Pending() != 0 {
		t.Fatalf("Pending = %d after full drain", sd.Pending())
	}
}

func TestStreamDecoderByteAtATime(t *testing.T) {
	var sd StreamDecoder
	frame := Encode(sampleMessage())
	for i, b := range frame {
		sd.Feed([]byte{b})
		m, err := sd.Next()
		if err != nil {
			t.Fatalf("byte %d: %v", i, err)
		}
		if i < len(frame)-1 && m != nil {
			t.Fatalf("message completed early at byte %d", i)
		}
		if i == len(frame)-1 && m == nil {
			t.Fatal("message not completed after final byte")
		}
	}
}

func TestStreamDecoderMultipleFrames(t *testing.T) {
	var sd StreamDecoder
	var buf []byte
	const n = 50
	for i := 0; i < n; i++ {
		buf = AppendEncode(buf, &Message{Kind: KindNotify, Topic: "t", Seq: uint64(i)})
	}
	sd.Feed(buf)
	for i := 0; i < n; i++ {
		m, err := sd.Next()
		if err != nil || m == nil {
			t.Fatalf("frame %d: %v, %v", i, m, err)
		}
		if m.Seq != uint64(i) {
			t.Fatalf("frame %d has seq %d (order broken)", i, m.Seq)
		}
	}
	if m, _ := sd.Next(); m != nil {
		t.Fatal("extra frame decoded")
	}
}

func TestStreamDecoderSplitAcrossFeeds(t *testing.T) {
	var sd StreamDecoder
	frame := Encode(sampleMessage())
	mid := len(frame) / 2
	sd.Feed(frame[:mid])
	if m, err := sd.Next(); m != nil || err != nil {
		t.Fatalf("half frame: %v, %v", m, err)
	}
	sd.Feed(frame[mid:])
	m, err := sd.Next()
	if err != nil || m == nil {
		t.Fatalf("completed frame: %v, %v", m, err)
	}
}

func TestStreamDecoderOversizeFrame(t *testing.T) {
	var sd StreamDecoder
	hdr := make([]byte, 4)
	binary.BigEndian.PutUint32(hdr, MaxFrameSize+1)
	sd.Feed(hdr)
	if _, err := sd.Next(); err == nil {
		t.Fatal("expected ErrFrameTooLarge")
	}
}

func TestStreamDecoderReset(t *testing.T) {
	var sd StreamDecoder
	sd.Feed([]byte{1, 2, 3})
	sd.Reset()
	if sd.Pending() != 0 {
		t.Fatal("Reset did not clear buffer")
	}
}

func BenchmarkStreamDecoder(b *testing.B) {
	frame := Encode(&Message{Kind: KindNotify, Topic: "scores/1", Payload: make([]byte, 140), Seq: 1})
	var sd StreamDecoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sd.Feed(frame)
		if _, err := sd.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStreamDecoderChunkSplitEquivalence: however a multi-frame stream is
// cut into Feed calls, the decoder yields the same messages as decoding
// it in one piece.
func TestStreamDecoderChunkSplitEquivalence(t *testing.T) {
	streams := []struct {
		name string
		msgs []*Message
	}{
		{"single", []*Message{sampleMessage()}},
		{"mixed kinds", []*Message{
			{Kind: KindConnect, ClientID: "c-1"},
			{Kind: KindSubscribe, Topics: []TopicPosition{{Topic: "a", Epoch: 1, Seq: 9}, {Topic: "b"}}},
			sampleMessage(),
			{Kind: KindPing},
			{Kind: KindPublish, Topic: "a", ID: "p:1", Payload: []byte("hello")},
		}},
		{"notify burst", func() []*Message {
			var ms []*Message
			for i := range 8 {
				ms = append(ms, &Message{Kind: KindNotify, Topic: "t", Seq: uint64(i), Payload: make([]byte, 40*i)})
			}
			return ms
		}()},
	}
	decodeAll := func(chunks ...[]byte) []*Message {
		var sd StreamDecoder
		var out []*Message
		for _, c := range chunks {
			sd.Feed(c)
			for {
				m, err := sd.Next()
				if err != nil {
					t.Fatalf("Next: %v", err)
				}
				if m == nil {
					break
				}
				out = append(out, m)
			}
		}
		if sd.Pending() != 0 {
			t.Fatalf("Pending = %d after the whole stream", sd.Pending())
		}
		return out
	}
	for _, tc := range streams {
		t.Run(tc.name, func(t *testing.T) {
			var stream []byte
			for _, m := range tc.msgs {
				stream = AppendEncode(stream, m)
			}
			want := decodeAll(stream)
			if len(want) != len(tc.msgs) {
				t.Fatalf("whole stream decoded %d messages, want %d", len(want), len(tc.msgs))
			}
			for i := 0; i <= len(stream); i++ {
				if got := decodeAll(stream[:i], stream[i:]); !reflect.DeepEqual(got, want) {
					t.Fatalf("split at %d decoded differently", i)
				}
			}
			for size := 1; size < len(stream); size++ {
				var chunks [][]byte
				for off := 0; off < len(stream); off += size {
					chunks = append(chunks, stream[off:min(off+size, len(stream))])
				}
				if got := decodeAll(chunks...); !reflect.DeepEqual(got, want) {
					t.Fatalf("%d-byte chunks decoded differently", size)
				}
			}
		})
	}
}

// BenchmarkStreamDecoderBurst decodes one 64 KiB read of back-to-back
// 140-byte-payload NOTIFY frames — a subscriber's catch-up burst.
func BenchmarkStreamDecoderBurst(b *testing.B) {
	frame := Encode(&Message{Kind: KindNotify, Topic: "topic-17", ID: "12345.67890.1",
		Payload: make([]byte, 140), Epoch: 1, Seq: 123456})
	var burst []byte
	for len(burst)+len(frame) <= 64<<10 {
		burst = append(burst, frame...)
	}
	frames := len(burst) / len(frame)
	sd := StreamDecoder{PoolPayloads: true, PoolMessages: true}
	b.SetBytes(int64(len(burst)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sd.Feed(burst)
		for n := 0; n < frames; n++ {
			m, err := sd.Next()
			if err != nil || m == nil {
				b.Fatalf("frame %d: %v, %v", n, m, err)
			}
			ReleaseMessage(m)
		}
	}
}
