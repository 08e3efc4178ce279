// Wire protocol of the shapelet model server (docs/serving.md).
//
// Every message is one length-prefixed frame, little-endian throughout:
//
//   offset  size  field
//   0       4     magic "IPSF"
//   4       2     protocol version (kProtocolVersion; a reader rejects a
//                 version it does not speak with an explicit error frame)
//   6       2     op (FrameOp)
//   8       4     payload length in bytes (<= kMaxPayloadBytes)
//   12      n     payload, op-specific
//
// Doubles travel as their IEEE-754 bit pattern (8 bytes, little-endian),
// so a series round-trips the wire bit-exactly -- the property the
// serving-vs-offline bitwise parity gate (bench_serve) rests on. Strings
// and vectors are u32-length-prefixed. Malformed payloads decode to
// failure, never to a partial struct the server could act on.
//
// Request/response pairs: classify, reload, stats, health. Any failure is
// answered with an explicit kError frame (ErrorCode + message) on the same
// connection -- the connection itself is only dropped when framing is
// unrecoverable (bad magic / oversized length), since nothing after a
// corrupt header can be trusted.

#ifndef IPS_SERVE_PROTOCOL_H_
#define IPS_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace ips::serve {

inline constexpr uint8_t kMagic[4] = {'I', 'P', 'S', 'F'};
inline constexpr uint16_t kProtocolVersion = 1;
inline constexpr size_t kHeaderBytes = 12;
/// Upper bound on one frame's payload; a header declaring more is treated
/// as framing corruption (kMalformed), not an allocation request.
inline constexpr size_t kMaxPayloadBytes = 64u << 20;

enum class FrameOp : uint16_t {
  kClassifyRequest = 1,
  kClassifyResponse = 2,
  kReloadRequest = 3,
  kReloadResponse = 4,
  kStatsRequest = 5,
  kStatsResponse = 6,
  kHealthRequest = 7,
  kHealthResponse = 8,
  kError = 9,
};

enum class ErrorCode : uint32_t {
  kBadFrame = 1,       ///< header ok, payload does not decode
  kUnknownOp = 2,      ///< op outside FrameOp (connection stays open)
  kUnknownModel = 3,   ///< no model registered under the requested name
  kBadRequest = 4,     ///< decodable but invalid (e.g. empty series)
  kReloadFailed = 5,   ///< artifact reload failed; old model still serving
  kUnsupportedVersion = 6,  ///< frame speaks a protocol we do not
  kInternal = 7,
};

/// One decoded frame: the op plus its raw payload bytes.
struct Frame {
  FrameOp op = FrameOp::kError;
  std::vector<uint8_t> payload;
};

// ------------------------------------------------------------- payloads

struct ClassifyRequest {
  std::string model;
  /// The query batch; labels are unknown, so plain value vectors.
  std::vector<std::vector<double>> series;
};

struct ClassifyResponse {
  /// Version of the registry slot that served the batch (monotonic per
  /// model name); lets a client correlate answers with reloads.
  uint32_t model_version = 0;
  std::vector<int32_t> labels;
};

struct ReloadRequest {
  std::string model;
};

struct ReloadResponse {
  uint32_t model_version = 0;  ///< the freshly-swapped-in version
};

struct StatsResponse {
  std::string json;  ///< the obs-schema stats document (docs/serving.md)
};

struct HealthResponse {
  uint32_t model_count = 0;
};

struct ErrorFrame {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

// ------------------------------------------------------------- framing

/// Serialises header + payload into one contiguous buffer.
std::vector<uint8_t> EncodeFrame(const Frame& frame);

enum class DecodeStatus {
  kOk,        ///< one whole frame consumed
  kNeedMore,  ///< valid prefix; read more bytes and retry
  kMalformed, ///< bad magic, unknown protocol version or oversized length
};

/// Decodes the first frame of `data`. On kOk fills `out` and sets
/// `consumed` to the frame's total size; on kNeedMore/kMalformed leaves
/// both untouched. An op value outside FrameOp still decodes kOk (the
/// dispatcher answers kUnknownOp; the framing itself is sound).
DecodeStatus DecodeFrame(std::span<const uint8_t> data, Frame* out,
                         size_t* consumed);

// ------------------------------------------- payload encoders/decoders
// Decoders return false on any truncation, trailing garbage or declared
// length exceeding the bytes present; `out` contents are unspecified then.

std::vector<uint8_t> EncodeClassifyRequest(const ClassifyRequest& req);
bool DecodeClassifyRequest(std::span<const uint8_t> payload,
                           ClassifyRequest* out);

std::vector<uint8_t> EncodeClassifyResponse(const ClassifyResponse& resp);
bool DecodeClassifyResponse(std::span<const uint8_t> payload,
                            ClassifyResponse* out);

std::vector<uint8_t> EncodeReloadRequest(const ReloadRequest& req);
bool DecodeReloadRequest(std::span<const uint8_t> payload, ReloadRequest* out);

std::vector<uint8_t> EncodeReloadResponse(const ReloadResponse& resp);
bool DecodeReloadResponse(std::span<const uint8_t> payload,
                          ReloadResponse* out);

std::vector<uint8_t> EncodeStatsResponse(const StatsResponse& resp);
bool DecodeStatsResponse(std::span<const uint8_t> payload, StatsResponse* out);

std::vector<uint8_t> EncodeHealthResponse(const HealthResponse& resp);
bool DecodeHealthResponse(std::span<const uint8_t> payload,
                          HealthResponse* out);

std::vector<uint8_t> EncodeErrorFrame(const ErrorFrame& err);
bool DecodeErrorFrame(std::span<const uint8_t> payload, ErrorFrame* out);

// ------------------------------------------------------------ socket I/O

/// Reads exactly one frame from `fd` (blocking, EINTR-retrying). Returns
/// nullopt on EOF before any byte (clean close), on mid-frame EOF, on
/// read error, or on a malformed header; `*error` distinguishes the cases
/// when provided (empty string for the clean-close case).
std::optional<Frame> ReadFrame(int fd, std::string* error = nullptr);

/// Writes the frame with retrying partial writes. False on write error,
/// including a peer that hung up (EPIPE, never SIGPIPE). `fd` must be a
/// socket: the write goes through send(MSG_NOSIGNAL).
bool WriteFrame(int fd, const Frame& frame, std::string* error = nullptr);

}  // namespace ips::serve

#endif  // IPS_SERVE_PROTOCOL_H_
