//! `atim-wire`: frame encoding and decoding of the three messages that
//! cross a socket on the serve and fleet paths.

use atim_autotune::{Json, JsonCodec, MeasureJob, Trace};
use atim_serve::{Request, Response, TuneReply, TuneRequest};
use atim_tir::compute::ComputeDef;
use atim_wire::{decode_frame, encode_frame};

/// A tune request, the cache-hit reply to it and a measurement job, as JSON.
pub fn messages(
    request: TuneRequest,
    def: &ComputeDef,
    generator: &str,
    trace: &Trace,
    latency_s: f64,
) -> Vec<Json> {
    let reply = TuneReply {
        cache_hit: true,
        deduped: false,
        latency_s,
        measured: 0,
        trace: trace.clone(),
    };
    let seed = request.seed;
    vec![
        Request::Tune(request).to_json(),
        Response::Result(reply).to_json(),
        MeasureJob::timing_for_def(0, def, generator, seed, trace.clone()).to_json(),
    ]
}

/// `encode_frame` of every message.
pub fn encode(messages: &[Json]) -> Vec<Vec<u8>> {
    messages.iter().map(encode_frame).collect()
}

/// `decode_frame` of every frame; returns whether each decoded to its
/// message, consuming the whole frame.
pub fn decode(frames: &[Vec<u8>], messages: &[Json]) -> bool {
    frames.iter().zip(messages).all(|(frame, message)| {
        decode_frame(frame).is_ok_and(|(json, used)| json == *message && used == frame.len())
    })
}
