//! Reusable scratch arena for the encoder hot path.
//!
//! Encoding one capture used to allocate thousands of short-lived buffers:
//! a copied tile raster, a scaled-sample vector, a quantized-coefficient
//! vector, DWT line buffers per decomposition level, a significance map,
//! per-plane `newly_significant` vectors, and a range-coder output that was
//! then cloned by budget truncation. A [`CodecScratch`] owns all of that
//! state once; threaded through [`encode_view`](crate::encode_view) and
//! [`encode_roi_with_scratch`](crate::encode_roi_with_scratch) it persists
//! across tiles, bands, and captures, so the steady-state per-capture path
//! performs no scratch allocation at all (the only remaining allocations
//! are the returned payload bytes, which must be owned).
//!
//! The arena also keeps growth accounting: [`CodecScratch::grow_events`]
//! increments whenever any buffer's capacity increases, which is how the
//! tests (and `perf_baseline`) assert "the second capture allocates no new
//! scratch".
//!
//! The arenas are also where codec telemetry lives: latency/size histogram
//! handles are resolved once per arena via `set_telemetry` and consulted by
//! every encode/decode call threaded through it, keeping the hot path free
//! of name lookups. Each call's one trace span feeds its latency
//! histogram, and reads no clock while neither is enabled.
//!
//! Each arena also owns the helpers its ROI tile calls, and a decode
//! arena's whole-band EPC2 decodes, fan their tiles or subband chunks out
//! to (one per extra worker, see `fanout`): a thread that sleeps between
//! calls and ends when the arena is dropped, and the helper arena it codes
//! through. Before each fan-out the helper arenas are sized like the
//! owner, and after it the owner and its helpers are sized like one
//! another (each buffer reserved to the largest capacity among them), so
//! once the owner has reached its steady size no arena grows, whichever
//! of them codes which tile. Helpers carry no instrumentation: a helper
//! times each tile with one pair of clock reads, and the owning arena
//! commits the tile's span and histogram samples after the call's last
//! tile, in tile order. A whole-band decode keeps its one span on the
//! calling thread. `reserved_bytes`, `grow_events` and `stages` count the
//! helpers too, so a fanned-out decode's stage seconds are summed over
//! concurrent workers.

use crate::fanout::{Helper, TileTime};
use crate::image_codec::FormatVersion;
use earthplus_telemetry::{names, Histogram, TelemetrySink, TraceSink};

/// Cumulative wall-clock time per codec stage, accumulated across every
/// encode or decode call threaded through the owning arena. A measured
/// window is the difference of two reads: `perf_baseline` snapshots the
/// breakdown around each timed call for its per-stage report. The bracketing
/// `Instant` reads (at most three per subband chunk: an EPC2 encode reads
/// the clock before quantizing a subband, between quantizing and coding
/// it, and after) are noise against the millisecond-scale stages they
/// time.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageBreakdown {
    /// Forward (encode) or inverse (decode) wavelet transform.
    pub dwt: std::time::Duration,
    /// Bitplane pass coding. The range-coder arithmetic is inlined into
    /// the passes, so its time is included here — the coder's intrinsic
    /// per-decision rate is characterized separately (see the
    /// `range_coder` section of the `perf_baseline` report).
    pub bitplane: std::time::Duration,
    /// Deadzone quantization (encode: each coded subband as it is
    /// gathered) or fused dequantization plus output normalization
    /// (decode).
    pub quantize: std::time::Duration,
}

/// Reserves `buffer` to at least `capacity` elements.
pub(crate) fn reserve_to<T>(buffer: &mut Vec<T>, capacity: usize) {
    if buffer.capacity() < capacity {
        buffer.reserve_exact(capacity - buffer.len());
    }
}

/// An arena a fan-out can hand to a helper worker.
pub(crate) trait HelperArena: Default + Send + 'static {
    /// Reserves every buffer to at least `other`'s capacity, counting any
    /// growth as one grow event.
    fn size_like(&mut self, other: &Self);
}

impl StageBreakdown {
    fn plus(self, other: &StageBreakdown) -> StageBreakdown {
        StageBreakdown {
            dwt: self.dwt + other.dwt,
            bitplane: self.bitplane + other.bitplane,
            quantize: self.quantize + other.quantize,
        }
    }
}

/// Reusable buffers for the DWT → quantize → bitplane → range-code path.
///
/// Create one per encoding context (e.g. per strategy instance) and pass
/// it to every encode call; buffers grow to the largest tile seen and are
/// then reused indefinitely.
#[derive(Debug, Default)]
pub struct CodecScratch {
    /// Scaled input samples; transformed in place into DWT coefficients.
    pub(crate) samples: Vec<f32>,
    /// Planar block buffer the forward DWT lifts each level in.
    pub(crate) dwt_block: Vec<f32>,
    /// Significance mask, one bit per coefficient (live during a pass).
    pub(crate) sig_words: Vec<u64>,
    /// Significance mask snapshot taken at the start of each plane; the
    /// contexts and the refinement set are frozen against it.
    pub(crate) snap_words: Vec<u64>,
    /// Derived context mask: bit set ⇔ at least one significant causal
    /// neighbour (context ≥ 1).
    pub(crate) any_words: Vec<u64>,
    /// Derived context mask: bit set ⇔ at least two significant causal
    /// neighbours (context 2).
    pub(crate) two_words: Vec<u64>,
    /// This plane's magnitude bits, packed 64 coefficients per word.
    pub(crate) bits_words: Vec<u64>,
    /// Bit set at every row-start position (column 0: no left neighbour).
    pub(crate) rowstart_words: Vec<u64>,
    /// Bit set at every row-end position (last column: no up-right
    /// neighbour).
    pub(crate) rowend_words: Vec<u64>,
    /// Range-coder output, reused across tiles via `clear()`: one subband
    /// chunk at a time.
    pub(crate) payload: Vec<u8>,
    /// Per-pass payload offsets of the subband chunk being encoded.
    pub(crate) pass_offsets: Vec<u32>,
    /// Gathered, quantized coefficients of the subband being coded.
    pub(crate) sb_coeffs: Vec<i32>,
    /// Concatenated subband chunks of the tile being encoded.
    pub(crate) stream: Vec<u8>,
    /// The tile's subband rectangles (enumeration reused per tile).
    pub(crate) sb_rects: Vec<crate::dwt::SubbandRect>,
    /// Per-call encode latency span target (disabled by default).
    pub(crate) enc_epc2_ns: Histogram,
    /// Encoded payload size per encode call (disabled by default).
    pub(crate) enc_bytes: Histogram,
    /// Per-call trace spans on the flight recorder (disabled by default).
    pub(crate) tracing: TraceSink,
    /// Per-stage wall-clock accumulators (see [`StageBreakdown`]).
    pub(crate) stages: StageBreakdown,
    /// The extra workers a fanned-out ROI encode runs on, each with its
    /// own arena.
    pub(crate) helpers: Vec<Helper<CodecScratch>>,
    /// Capacity sum observed after the previous encode call.
    last_capacity: usize,
    grow_events: u64,
}

impl CodecScratch {
    /// Creates an empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes currently reserved across all scratch buffers, helper
    /// arenas included.
    pub fn reserved_bytes(&self) -> usize {
        self.own_reserved_bytes()
            + self
                .helpers
                .iter()
                .map(|h| h.arena().reserved_bytes())
                .sum::<usize>()
    }

    fn own_reserved_bytes(&self) -> usize {
        self.samples.capacity() * std::mem::size_of::<f32>()
            + self.dwt_block.capacity() * std::mem::size_of::<f32>()
            + self.sig_words.capacity() * std::mem::size_of::<u64>()
            + self.snap_words.capacity() * std::mem::size_of::<u64>()
            + self.any_words.capacity() * std::mem::size_of::<u64>()
            + self.two_words.capacity() * std::mem::size_of::<u64>()
            + self.bits_words.capacity() * std::mem::size_of::<u64>()
            + self.rowstart_words.capacity() * std::mem::size_of::<u64>()
            + self.rowend_words.capacity() * std::mem::size_of::<u64>()
            + self.payload.capacity()
            + self.pass_offsets.capacity() * std::mem::size_of::<u32>()
            + self.sb_coeffs.capacity() * std::mem::size_of::<i32>()
            + self.stream.capacity()
            + self.sb_rects.capacity() * std::mem::size_of::<crate::dwt::SubbandRect>()
    }

    /// How many encode calls had to grow at least one buffer, summed over
    /// this arena and its helpers. Stable across two identical workloads ⇔
    /// the second one allocated no scratch.
    pub fn grow_events(&self) -> u64 {
        self.grow_events
            + self
                .helpers
                .iter()
                .map(|h| h.arena().grow_events())
                .sum::<u64>()
    }

    /// Wires this arena's encode instrumentation to `sink`: every encode
    /// call through it then records a latency span
    /// ([`CODEC_ENCODE_EPC2_NS`](earthplus_telemetry::names::CODEC_ENCODE_EPC2_NS):
    /// the library encodes EPC2 only) and a payload-size sample
    /// ([`CODEC_ENCODE_BYTES`](earthplus_telemetry::names::CODEC_ENCODE_BYTES)).
    /// The handles live in the scratch arena — resolved once here, not per
    /// call — and a disabled sink leaves them as no-ops: uninstrumented
    /// encoding records nothing and, with tracing off too, reads no clock.
    pub fn set_telemetry(&mut self, sink: &TelemetrySink) {
        self.enc_epc2_ns = sink.histogram(names::CODEC_ENCODE_EPC2_NS);
        self.enc_bytes = sink.histogram(names::CODEC_ENCODE_BYTES);
    }

    /// Wires this arena's trace events to `sink`: every encode call then
    /// records a begin/end span (lane `"codec"`) on whatever track/trace
    /// is in scope — the capture being encoded when the strategy opened
    /// one. A disabled sink records nothing, and the span reads the clock
    /// only for an enabled latency histogram.
    pub fn set_tracing(&mut self, sink: &TraceSink) {
        self.tracing = sink.clone();
    }

    /// Called at the end of every encode to account for buffer growth.
    /// The helpers are sized like this arena as soon as it grows, so
    /// growth in a serial call does not reach them only at the next
    /// fan-out.
    pub(crate) fn track_growth(&mut self) {
        let now = self.own_reserved_bytes();
        if now > self.last_capacity {
            self.grow_events += 1;
            self.last_capacity = now;
            for helper in &self.helpers {
                helper.arena().size_like(self);
            }
        }
    }

    /// Per-stage wall-clock time accumulated by every encode call through
    /// this arena and its helpers. Fanned-out workers run concurrently, so
    /// the sum can exceed the wall time of the calls.
    pub fn stages(&self) -> StageBreakdown {
        self.helpers
            .iter()
            .fold(self.stages, |sum, h| sum.plus(&h.arena().stages()))
    }

    /// Whether an encode's time has a consumer: the recorder or the
    /// latency histogram.
    pub(crate) fn timed(&self) -> bool {
        self.tracing.enabled() || self.enc_epc2_ns.enabled()
    }

    /// Commits one fanned-out tile encode's instrumentation, as the
    /// encode's own span would have recorded it: the `encode.epc2` span
    /// and latency sample from the worker's clock pair, and the payload
    /// size sample.
    pub(crate) fn commit_encode(&self, time: TileTime, payload_bytes: usize) {
        if let Some((start, end)) = time {
            let args = [("payload_bytes", payload_bytes.into())];
            self.tracing
                .record_span("codec", "encode.epc2", start, end, &args);
            self.enc_epc2_ns.record_duration(end - start);
        }
        self.enc_bytes.record(payload_bytes as u64);
    }
}

impl HelperArena for CodecScratch {
    fn size_like(&mut self, other: &Self) {
        reserve_to(&mut self.samples, other.samples.capacity());
        reserve_to(&mut self.dwt_block, other.dwt_block.capacity());
        reserve_to(&mut self.sig_words, other.sig_words.capacity());
        reserve_to(&mut self.snap_words, other.snap_words.capacity());
        reserve_to(&mut self.any_words, other.any_words.capacity());
        reserve_to(&mut self.two_words, other.two_words.capacity());
        reserve_to(&mut self.bits_words, other.bits_words.capacity());
        reserve_to(&mut self.rowstart_words, other.rowstart_words.capacity());
        reserve_to(&mut self.rowend_words, other.rowend_words.capacity());
        reserve_to(&mut self.payload, other.payload.capacity());
        reserve_to(&mut self.pass_offsets, other.pass_offsets.capacity());
        reserve_to(&mut self.sb_coeffs, other.sb_coeffs.capacity());
        reserve_to(&mut self.stream, other.stream.capacity());
        reserve_to(&mut self.sb_rects, other.sb_rects.capacity());
        self.track_growth();
    }
}

/// Reusable buffers for the decode path: seek → bitplane-decode →
/// dequantize → inverse-DWT.
///
/// The decode side used to allocate everything per call — a coefficient
/// plane, per-subband quantized vectors, six traversal lists, and two
/// inverse-DWT scratch lines. A [`DecodeScratch`] owns all of that once;
/// threaded through [`decode_with_scratch`](crate::decode_with_scratch),
/// [`decode_into`](crate::decode_into), and the partial-decode entry
/// points it persists across tiles and captures, so the steady-state
/// decode path performs no scratch allocation (the only remaining
/// allocation is a returned raster, which must be owned — `decode_into`
/// avoids even that).
///
/// Growth accounting mirrors [`CodecScratch`]: [`DecodeScratch::grow_events`]
/// increments whenever any buffer's capacity increases, which is how the
/// tests assert "the second capture allocates no new decode scratch".
#[derive(Debug, Default)]
pub struct DecodeScratch {
    /// Dequantized coefficient plane of the (possibly reduced) output
    /// geometry; transformed in place by the inverse DWT.
    pub(crate) coeffs: Vec<f32>,
    /// Decoded quantized coefficients (whole plane for EPC1, one subband
    /// chunk at a time for EPC2).
    pub(crate) quantized: Vec<i32>,
    /// Planar block buffer the inverse DWT lifts each level in.
    pub(crate) dwt_block: Vec<f32>,
    /// Decoded magnitude bits per coefficient.
    pub(crate) mag: Vec<u32>,
    /// Significance mask, one bit per coefficient (live during a pass).
    pub(crate) sig_words: Vec<u64>,
    /// Significance mask snapshot taken at the start of each plane.
    pub(crate) snap_words: Vec<u64>,
    /// Derived context mask: at least one significant causal neighbour.
    pub(crate) any_words: Vec<u64>,
    /// Derived context mask: at least two significant causal neighbours.
    pub(crate) two_words: Vec<u64>,
    /// Decoded sign bits, one per coefficient.
    pub(crate) neg_words: Vec<u64>,
    /// Bit set at every row-start position (column 0).
    pub(crate) rowstart_words: Vec<u64>,
    /// Bit set at every row-end position (last column).
    pub(crate) rowend_words: Vec<u64>,
    /// Subband rectangles of the stream being decoded (EPC2).
    pub(crate) sb_rects: Vec<crate::dwt::SubbandRect>,
    /// Full EPC1 decode latency span target (disabled by default).
    pub(crate) dec_epc1_ns: Histogram,
    /// Full EPC2 decode latency span target (disabled by default).
    pub(crate) dec_epc2_ns: Histogram,
    /// Partial (level-limited / LL-only) decode latency span target
    /// (disabled by default).
    pub(crate) dec_partial_ns: Histogram,
    /// Per-call trace spans on the flight recorder (disabled by default).
    pub(crate) tracing: TraceSink,
    /// Per-stage wall-clock accumulators (see [`StageBreakdown`]).
    pub(crate) stages: StageBreakdown,
    /// Dequantized coefficients of each kept subband chunk of a
    /// fanned-out EPC2 decode, lent to the call's workers and copied into
    /// `coeffs` after it.
    pub(crate) chunk_coeffs: Vec<Vec<f32>>,
    /// The extra workers a fanned-out tile or chunk decode runs on, each
    /// with its own arena.
    pub(crate) helpers: Vec<Helper<DecodeScratch>>,
    /// Payload bytes the last decode call handed to the bitplane decoders
    /// — the byte-access counter the seek tests assert against (an
    /// LL-only decode of an EPC2 stream must never touch bytes past the
    /// LL chunk).
    pub(crate) payload_bytes_read: usize,
    /// Capacity sum observed after the previous decode call.
    last_capacity: usize,
    grow_events: u64,
}

impl DecodeScratch {
    /// Creates an empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes currently reserved across all scratch buffers, helper
    /// arenas included.
    pub fn reserved_bytes(&self) -> usize {
        self.own_reserved_bytes()
            + self
                .helpers
                .iter()
                .map(|h| h.arena().reserved_bytes())
                .sum::<usize>()
    }

    fn own_reserved_bytes(&self) -> usize {
        self.coeffs.capacity() * std::mem::size_of::<f32>()
            + self.quantized.capacity() * std::mem::size_of::<i32>()
            + self.dwt_block.capacity() * std::mem::size_of::<f32>()
            + self.mag.capacity() * std::mem::size_of::<u32>()
            + self.sig_words.capacity() * std::mem::size_of::<u64>()
            + self.snap_words.capacity() * std::mem::size_of::<u64>()
            + self.any_words.capacity() * std::mem::size_of::<u64>()
            + self.two_words.capacity() * std::mem::size_of::<u64>()
            + self.neg_words.capacity() * std::mem::size_of::<u64>()
            + self.rowstart_words.capacity() * std::mem::size_of::<u64>()
            + self.rowend_words.capacity() * std::mem::size_of::<u64>()
            + self.sb_rects.capacity() * std::mem::size_of::<crate::dwt::SubbandRect>()
            + self.chunk_coeffs.capacity() * std::mem::size_of::<Vec<f32>>()
            + self
                .chunk_coeffs
                .iter()
                .map(|c| c.capacity() * std::mem::size_of::<f32>())
                .sum::<usize>()
    }

    /// How many decode calls had to grow at least one buffer, summed over
    /// this arena and its helpers. Stable across two identical workloads
    /// ⇔ the second one allocated no scratch.
    pub fn grow_events(&self) -> u64 {
        self.grow_events
            + self
                .helpers
                .iter()
                .map(|h| h.arena().grow_events())
                .sum::<u64>()
    }

    /// Wires this arena's decode instrumentation to `sink`: every decode
    /// call through it then records a latency span — per format for full
    /// decodes
    /// ([`CODEC_DECODE_EPC1_NS`](earthplus_telemetry::names::CODEC_DECODE_EPC1_NS)
    /// / [`CODEC_DECODE_EPC2_NS`](earthplus_telemetry::names::CODEC_DECODE_EPC2_NS)),
    /// and
    /// [`CODEC_DECODE_PARTIAL_NS`](earthplus_telemetry::names::CODEC_DECODE_PARTIAL_NS)
    /// for level-limited / LL-only decodes. A disabled sink leaves the
    /// handles as no-ops.
    pub fn set_telemetry(&mut self, sink: &TelemetrySink) {
        self.dec_epc1_ns = sink.histogram(names::CODEC_DECODE_EPC1_NS);
        self.dec_epc2_ns = sink.histogram(names::CODEC_DECODE_EPC2_NS);
        self.dec_partial_ns = sink.histogram(names::CODEC_DECODE_PARTIAL_NS);
    }

    /// Wires this arena's trace events to `sink`: every decode call then
    /// records a begin/end span (lane `"codec"`) on whatever track/trace
    /// is in scope. A disabled sink records nothing, and the span reads
    /// the clock only for an enabled latency histogram.
    pub fn set_tracing(&mut self, sink: &TraceSink) {
        self.tracing = sink.clone();
    }

    /// Payload bytes the most recent decode call actually read (sliced
    /// for the bitplane decoders). An EPC2 partial decode seeks only the
    /// chunks it needs, so this is bounded by the kept chunks' lengths —
    /// the property the byte-access tests pin down.
    pub fn payload_bytes_read(&self) -> usize {
        self.payload_bytes_read
    }

    /// Called at the end of every decode to account for buffer growth.
    /// The helpers are sized like this arena as soon as it grows, so
    /// growth in a serial call, or in a chunk decode's inverse DWT, does
    /// not reach them only at the next fan-out.
    pub(crate) fn track_growth(&mut self) {
        let now = self.own_reserved_bytes();
        if now > self.last_capacity {
            self.grow_events += 1;
            self.last_capacity = now;
            for helper in &self.helpers {
                helper.arena().size_like(self);
            }
        }
    }

    /// Per-stage wall-clock time accumulated by every decode call through
    /// this arena and its helpers. Fanned-out workers run concurrently, so
    /// the sum can exceed the wall time of the calls.
    pub fn stages(&self) -> StageBreakdown {
        self.helpers
            .iter()
            .fold(self.stages, |sum, h| sum.plus(&h.arena().stages()))
    }

    /// The span name and latency histogram of a decode of a `format`
    /// stream discarding `k` levels. Partial decodes (any discarded level,
    /// including LL-only) share one regardless of format; full decodes
    /// split per format.
    pub(crate) fn decode_span(&self, format: FormatVersion, k: u8) -> (&'static str, &Histogram) {
        if k > 0 {
            ("decode.partial", &self.dec_partial_ns)
        } else {
            match format {
                FormatVersion::Epc1 => ("decode.epc1", &self.dec_epc1_ns),
                FormatVersion::Epc2 => ("decode.epc2", &self.dec_epc2_ns),
            }
        }
    }

    /// Whether a decode's time has a consumer: the recorder or a latency
    /// histogram.
    pub(crate) fn timed(&self) -> bool {
        self.tracing.enabled()
            || self.dec_epc1_ns.enabled()
            || self.dec_epc2_ns.enabled()
            || self.dec_partial_ns.enabled()
    }

    /// Commits one fanned-out full tile decode's span and latency sample
    /// from the worker's clock pair, as [`crate::decode_into`]'s own span
    /// would have recorded them.
    pub(crate) fn commit_decode(
        &self,
        format: FormatVersion,
        time: TileTime,
        payload_bytes: usize,
    ) {
        let Some((start, end)) = time else { return };
        let (name, hist) = self.decode_span(format, 0);
        let args = [
            ("payload_bytes", payload_bytes.into()),
            ("discard_levels", 0u8.into()),
        ];
        self.tracing.record_span("codec", name, start, end, &args);
        hist.record_duration(end - start);
    }
}

impl HelperArena for DecodeScratch {
    fn size_like(&mut self, other: &Self) {
        reserve_to(&mut self.coeffs, other.coeffs.capacity());
        reserve_to(&mut self.quantized, other.quantized.capacity());
        reserve_to(&mut self.dwt_block, other.dwt_block.capacity());
        reserve_to(&mut self.mag, other.mag.capacity());
        reserve_to(&mut self.sig_words, other.sig_words.capacity());
        reserve_to(&mut self.snap_words, other.snap_words.capacity());
        reserve_to(&mut self.any_words, other.any_words.capacity());
        reserve_to(&mut self.two_words, other.two_words.capacity());
        reserve_to(&mut self.neg_words, other.neg_words.capacity());
        reserve_to(&mut self.rowstart_words, other.rowstart_words.capacity());
        reserve_to(&mut self.rowend_words, other.rowend_words.capacity());
        reserve_to(&mut self.sb_rects, other.sb_rects.capacity());
        self.track_growth();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_accounting_settles() {
        let mut s = CodecScratch::new();
        assert_eq!(s.grow_events(), 0);
        s.samples.reserve(1024);
        s.track_growth();
        assert_eq!(s.grow_events(), 1);
        // Same capacity again: no new event.
        s.samples.clear();
        s.track_growth();
        assert_eq!(s.grow_events(), 1);
        s.payload.reserve(4096);
        s.track_growth();
        assert_eq!(s.grow_events(), 2);
        assert!(s.reserved_bytes() >= 1024 * 4 + 4096);
    }

    #[test]
    fn telemetry_spans_record_per_format_and_partial() {
        use crate::reference::encode_reference;
        use crate::{decode_ll_only, decode_with_scratch, encode_view, CodecConfig};
        use earthplus_raster::Raster;
        use earthplus_telemetry::MetricsRegistry;

        let registry = MetricsRegistry::new();
        let mut enc = CodecScratch::new();
        let mut dec = DecodeScratch::new();
        enc.set_telemetry(&registry.sink());
        dec.set_telemetry(&registry.sink());

        let img = Raster::from_fn(16, 16, |x, y| ((x * 7 + y * 3) % 11) as f32 / 11.0);
        let view = img.view(0, 0, 16, 16);
        let config = CodecConfig::default();
        // The EPC1 stream comes from the vendored reference encoder, which
        // records nothing; only the library's EPC2 encode is timed.
        let epc1 = encode_reference(&img, &config).unwrap();
        let epc2 = encode_view(&view, &config, &mut enc).unwrap();
        for encoded in [epc1, epc2] {
            decode_with_scratch(&encoded, &mut dec).unwrap();
            decode_ll_only(&encoded, &mut dec).unwrap();
        }

        let s = registry.snapshot();
        assert!(s.histogram(names::CODEC_ENCODE_EPC1_NS).is_none());
        assert_eq!(s.histogram(names::CODEC_ENCODE_EPC2_NS).unwrap().count, 1);
        assert_eq!(s.histogram(names::CODEC_ENCODE_BYTES).unwrap().count, 1);
        assert_eq!(s.histogram(names::CODEC_DECODE_EPC1_NS).unwrap().count, 1);
        assert_eq!(s.histogram(names::CODEC_DECODE_EPC2_NS).unwrap().count, 1);
        assert_eq!(
            s.histogram(names::CODEC_DECODE_PARTIAL_NS).unwrap().count,
            2
        );
        assert!(s.histogram(names::CODEC_ENCODE_BYTES).unwrap().sum > 0);
    }

    #[test]
    fn helpers_are_sized_like_their_owner() {
        let mut owner = CodecScratch::new();
        owner.payload.reserve(4096);
        owner.samples.reserve(64);
        let mut helper = CodecScratch::new();
        helper.samples.reserve(1024);
        helper.size_like(&owner);
        assert!(helper.payload.capacity() >= owner.payload.capacity());
        assert!(helper.samples.capacity() >= 1024);
        assert!(helper.own_reserved_bytes() >= owner.own_reserved_bytes());
        assert_eq!(helper.grow_events(), 1);
        helper.size_like(&owner);
        assert_eq!(helper.grow_events(), 1);
        let mut decode = DecodeScratch::new();
        let mut decode_owner = DecodeScratch::new();
        decode_owner.mag.reserve(512);
        decode.size_like(&decode_owner);
        assert!(decode.own_reserved_bytes() >= decode_owner.own_reserved_bytes());
    }

    #[test]
    fn decode_growth_accounting_settles() {
        let mut s = DecodeScratch::new();
        assert_eq!(s.grow_events(), 0);
        s.coeffs.reserve(512);
        s.track_growth();
        assert_eq!(s.grow_events(), 1);
        s.coeffs.clear();
        s.track_growth();
        assert_eq!(s.grow_events(), 1);
        s.mag.reserve(512);
        s.track_growth();
        assert_eq!(s.grow_events(), 2);
        assert!(s.reserved_bytes() >= 512 * 4 * 2);
    }
}
