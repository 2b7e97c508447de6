package sensors

// FrameBuffer encodes world views for the wire into one reused buffer.
// It returns a frame as its head — the message kind, header and actor
// records — plus the length of the video fill that follows it. The fill
// is all zeros by the wire contract and 6–24 kB a frame, so it never
// exists as bytes on the send path: transport.Endpoint.SendFill carries
// it as a count. head followed by fill zero bytes is the frame.
//
// The returned head is valid until the next call; a consumer copies what
// it keeps (SendFill does). The zero value is ready to use.
type FrameBuffer struct {
	buf []byte
}

// Keyframe returns kind followed by MarshalWorldView(v), as a head and
// a fill length.
func (b *FrameBuffer) Keyframe(kind byte, v WorldView) (head []byte, fill int) {
	fill = max(v.VideoFill, 0)
	n := 1 + WorldViewWireSize(v) - fill
	if n > cap(b.buf) {
		b.buf = make([]byte, n+n/4)
	}
	head = b.buf[:n]
	head[0] = kind
	putWorldViewHead(head[1:], v)
	return head, fill
}

// Delta returns kind followed by MarshalWorldViewDelta(base, v,
// deltaFill), as a head and a fill length.
func (b *FrameBuffer) Delta(kind byte, base, v WorldView, deltaFill int) (head []byte, fill int) {
	b.buf = appendWorldViewDeltaHead(append(b.buf[:0], kind), base, v, deltaFill)
	return b.buf, max(deltaFill, 0)
}
