//! One closed-loop client of a resident `mcsm_serve::Engine`: each request
//! line is sent only after the previous answer came back.

use mcsm_num::json::JsonValue;
use mcsm_serve::{Engine, Session, SessionConfig};
use mcsm_sta::models::ModelLibrary;
use std::time::Instant;

/// The session settings of both server workloads: CompleteMcsm, dt 2 ps,
/// one worker thread, 2 fF on every primary output.
pub fn session_config() -> SessionConfig {
    SessionConfig {
        threads: 1,
        ..SessionConfig::default()
    }
}

pub struct Client {
    engine: Engine,
    next_id: u64,
}

impl Client {
    pub fn new(library: &ModelLibrary) -> Self {
        Client {
            engine: Engine::new(Session::new(library.clone(), session_config())),
            next_id: 0,
        }
    }

    /// Sends one request; returns the raw answer line and the host seconds
    /// the engine took to answer it.
    pub fn send(&mut self, method: &str, params: &str) -> (String, f64) {
        self.next_id += 1;
        let line = format!(
            r#"{{"jsonrpc":"2.0","id":{},"method":"{method}","params":{params}}}"#,
            self.next_id
        );
        let _span = mcsm_obs::span_lazy(|| format!("bench.rpc.{method}"));
        let started = Instant::now();
        let answer = self.engine.handle_line(&line);
        (answer, started.elapsed().as_secs_f64())
    }

    /// [`Client::send`], then [`result_of`].
    ///
    /// # Errors
    ///
    /// As [`result_of`].
    pub fn call(&mut self, method: &str, params: &str) -> Result<JsonValue, String> {
        let (answer, _) = self.send(method, params);
        result_of(method, &answer)
    }
}

/// The `result` of an answer line.
///
/// # Errors
///
/// The server's error message, or a parse failure.
pub fn result_of(method: &str, answer: &str) -> Result<JsonValue, String> {
    let doc =
        JsonValue::parse(answer).map_err(|e| format!("{method}: unparsable answer: {}", e.0))?;
    if let Some(error) = doc.get("error") {
        let message = error
            .get("message")
            .and_then(JsonValue::as_str)
            .unwrap_or("?");
        return Err(format!("{method}: server error: {message}"));
    }
    doc.get("result")
        .cloned()
        .ok_or_else(|| format!("{method}: answer has no result"))
}

/// The answer's content without the per-request bookkeeping (`seq`, cache
/// deltas, timing), as compact JSON text.
pub fn content(result: &JsonValue) -> String {
    match result {
        JsonValue::Object(fields) => JsonValue::Object(
            fields
                .iter()
                .filter(|(key, _)| !matches!(key.as_str(), "seq" | "cache" | "timing_us"))
                .cloned()
                .collect(),
        )
        .to_string_compact(),
        other => other.to_string_compact(),
    }
}

/// A number field of an answer.
pub fn number(result: &JsonValue, key: &str) -> Option<f64> {
    result.get(key).and_then(JsonValue::as_f64)
}
