//! The wire types of the front-door's JSON API, and their lowering onto
//! the serving layer's planned-job vocabulary.

use mcmm_core::taxonomy::{Language, Model, Vendor};
use mcmm_gpu_sim::diffval::fnv1a;
use mcmm_serve::{KernelShape, PlannedInput, PlannedJob};
use serde::{Deserialize, Serialize};

/// Hard cap on elements per submitted buffer.
pub const MAX_ELEMS: usize = 1 << 20;

/// `POST /v1/submit` request body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubmitRequest {
    /// Tenant identity for fair-share admission.
    pub tenant: String,
    /// Kernel shape wire name: `copy`, `scale`, `saxpy`, `triad`.
    pub shape: String,
    /// Programming model, e.g. `CUDA`, `SYCL` (taxonomy wire names).
    pub model: String,
    /// Source language, e.g. `C++`, `Python`.
    pub language: String,
    /// Target vendor: `NVIDIA`, `AMD`, `Intel`.
    pub vendor: String,
    /// Scalar `a` of the shared kernel signature.
    pub a: f32,
    /// Input vector `x`.
    pub x: Vec<f32>,
    /// In/out vector `y` (same length as `x`); the response checksums the
    /// kernel's writes into this buffer.
    pub y: Vec<f32>,
}

/// `POST /v1/submit` success body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubmitResponse {
    /// FNV-1a checksum of the result buffer, as 16 hex digits (a JSON
    /// number would lose u64 precision past 2^53).
    pub checksum: String,
    /// Toolchain name of the route that served the job (after any
    /// failover).
    pub route: String,
    /// Always 0: the gateway has one executor.
    pub shard: usize,
    /// Did this request piggyback on an identical in-flight execution?
    pub coalesced: bool,
}

/// Any error body the gateway returns.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Human-readable cause.
    pub error: String,
}

/// An API-level refusal: status code, message, and the `Retry-After`
/// header value for backpressure statuses.
#[derive(Debug, Clone)]
pub struct ApiError {
    /// HTTP status to answer with.
    pub status: u16,
    /// Message for the [`ErrorBody`].
    pub message: String,
    /// `Retry-After` seconds (429/503 only).
    pub retry_after: Option<u64>,
}

impl ApiError {
    /// A 400 with a message.
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self { status: 400, message: message.into(), retry_after: None }
    }
}

impl From<&str> for ApiError {
    /// A bare message is an internal error: a 500 with no retry hint.
    fn from(message: &str) -> Self {
        Self { status: 500, message: message.into(), retry_after: None }
    }
}

/// A validated submission: the planned job plus its identity keys.
#[derive(Debug, Clone)]
pub struct ValidSubmit {
    /// The job, ready for the failover router.
    pub job: PlannedJob,
    /// Coalescing identity: one hash over `(fingerprint, route, args)` —
    /// kernel shape (a stand-in for the kernel fingerprint: shape fully
    /// determines the IR), route triple, scalar bits, and both input
    /// vectors byte for byte. Identical submissions collide; any
    /// difference separates.
    pub key: u64,
}

impl SubmitRequest {
    /// Validate and lower to a planned job + coalescing key.
    pub fn validate(&self) -> Result<ValidSubmit, ApiError> {
        let shape: KernelShape =
            self.shape.parse().map_err(|e: String| ApiError::bad_request(e))?;
        let model: Model = self.model.parse().map_err(|e| ApiError::bad_request(format!("{e}")))?;
        let language: Language =
            self.language.parse().map_err(|e| ApiError::bad_request(format!("{e}")))?;
        let vendor: Vendor =
            self.vendor.parse().map_err(|e| ApiError::bad_request(format!("{e}")))?;
        if self.x.is_empty() {
            return Err(ApiError::bad_request("x must not be empty"));
        }
        if self.x.len() != self.y.len() {
            return Err(ApiError::bad_request(format!(
                "x and y must have equal length (got {} and {})",
                self.x.len(),
                self.y.len()
            )));
        }
        if self.x.len() > MAX_ELEMS {
            return Err(ApiError::bad_request(format!(
                "buffers capped at {MAX_ELEMS} elements (got {})",
                self.x.len()
            )));
        }
        if !self.a.is_finite() {
            return Err(ApiError::bad_request("a must be finite"));
        }

        let mut id = Vec::with_capacity(32 + 8 * self.x.len());
        id.extend_from_slice(shape.name().as_bytes());
        id.push(0);
        id.extend_from_slice(&[model as u8, language as u8, vendor as u8]);
        id.extend_from_slice(&self.a.to_bits().to_le_bytes());
        for v in self.x.iter().chain(&self.y) {
            id.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        let key = fnv1a(&id);

        Ok(ValidSubmit {
            job: PlannedJob {
                shape,
                model,
                language,
                vendor,
                a: self.a,
                x: PlannedInput::Fresh(self.x.clone()),
                y: self.y.clone(),
                n: self.x.len() as u64,
            },
            key,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> SubmitRequest {
        SubmitRequest {
            tenant: "t0".into(),
            shape: "saxpy".into(),
            model: Model::Cuda.to_string(),
            language: Language::Cpp.to_string(),
            vendor: Vendor::Nvidia.to_string(),
            a: 2.0,
            x: vec![1.0, 2.0],
            y: vec![3.0, 4.0],
        }
    }

    #[test]
    fn valid_request_round_trips_through_json() {
        let text = serde_json::to_string(&req()).unwrap();
        let back: SubmitRequest = serde_json::from_str(&text).unwrap();
        let v = back.validate().unwrap();
        assert_eq!(v.job.n, 2);
        assert_eq!(v.key, req().validate().unwrap().key, "identical requests share a key");
    }

    #[test]
    fn any_field_difference_separates_coalescing_keys() {
        let base = req().validate().unwrap().key;
        let mut m = req();
        m.a = 3.0;
        assert_ne!(m.validate().unwrap().key, base);
        let mut m = req();
        m.x[0] = 9.0;
        assert_ne!(m.validate().unwrap().key, base);
        let mut m = req();
        m.vendor = Vendor::Amd.to_string();
        assert_ne!(m.validate().unwrap().key, base);
        let mut m = req();
        m.shape = "triad".into();
        assert_ne!(m.validate().unwrap().key, base);
    }

    #[test]
    fn validation_rejects_malformed_submissions() {
        let mut m = req();
        m.shape = "stencil".into();
        assert_eq!(m.validate().unwrap_err().status, 400);
        let mut m = req();
        m.y.pop();
        assert_eq!(m.validate().unwrap_err().status, 400);
        let mut m = req();
        m.x.clear();
        m.y.clear();
        assert_eq!(m.validate().unwrap_err().status, 400);
        let mut m = req();
        m.a = f32::NAN;
        assert_eq!(m.validate().unwrap_err().status, 400);
        let mut m = req();
        m.vendor = "Imagination".into();
        assert_eq!(m.validate().unwrap_err().status, 400);
    }
}
