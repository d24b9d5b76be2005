#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>

namespace socgen::svc::wire {

/// Length-prefixed pipe IPC protocol between the flow service and its
/// `socgen-worker` processes. Every frame is
///
///     u32 LE length  |  u8 type  |  payload (length-1 bytes)
///
/// with payloads encoded by the same BinWriter/BinReader primitives as
/// the artifact codec. The protocol is internal to one build (the
/// service spawns the worker binary it was built with); Hello carries a
/// version so a mismatched pairing fails loudly instead of mis-decoding.
///
/// Kernel and directives travel as their own encoded blobs
/// (hls::encodeKernel / hls::encodeDirectives): tenants submit arbitrary
/// kernels, so the worker must receive the full AST, not a name to look
/// up in some library it does not have.

/// v2: Result frames carry the v3 HlsResult codec (no HDL text), so a
/// stale worker is refused at Hello instead of failing its first reply.
inline constexpr std::uint32_t kProtocolVersion = 2;

/// Upper bound on one frame; anything larger is certain corruption of
/// the length prefix (a desynced or hostile peer), not a real payload.
inline constexpr std::uint32_t kMaxFrameBytes = 256u * 1024u * 1024u;

enum class FrameType : std::uint8_t {
    Hello = 1,      ///< worker -> service, once at startup
    Request = 2,    ///< service -> worker: run one stage attempt
    Result = 3,     ///< worker -> service: attempt succeeded
    Error = 4,      ///< worker -> service: attempt failed (structured)
    Heartbeat = 5,  ///< worker -> service: liveness
    Shutdown = 6,   ///< service -> worker: exit cleanly
};

[[nodiscard]] const char* toString(FrameType type);

struct Frame {
    FrameType type = FrameType::Heartbeat;
    std::string payload;
};

/// Renders one frame (length prefix included).
[[nodiscard]] std::string encodeFrame(FrameType type, std::string_view payload);

/// Incremental frame decoder: feed() arbitrary byte chunks, next() pops
/// complete frames. Throws WireError on an implausible length prefix or
/// unknown frame type — the fleet treats that as a poisoned worker.
class FrameReader {
public:
    void feed(std::string_view bytes);
    [[nodiscard]] std::optional<Frame> next();

    /// Bytes buffered but not yet consumed as a complete frame.
    [[nodiscard]] std::size_t pendingBytes() const { return buffer_.size(); }

private:
    std::string buffer_;
};

// ---------------------------------------------------------------------------
// Typed payloads.

struct HelloFrame {
    std::uint32_t protocolVersion = kProtocolVersion;
    std::uint64_t pid = 0;
};

struct RequestFrame {
    std::uint64_t requestId = 0;
    std::uint64_t leaseEpoch = 0;
    std::string key;         ///< content-addressed artifact key
    std::string kernel;      ///< hls::encodeKernel blob
    std::string directives;  ///< hls::encodeDirectives blob
    /// Test hooks, honoured by the worker before replying: sleep (models
    /// a slow vendor tool / a SIGSTOPped worker) and deliberate death at
    /// the stage boundary (models kill -9 between attempt and commit).
    std::uint32_t delayMsBeforeResult = 0;
    bool crashBeforeResult = false;
};

struct ResultFrame {
    std::uint64_t requestId = 0;
    std::uint64_t leaseEpoch = 0;
    std::string result;  ///< hls::encodeHlsResult blob
};

/// Structured attempt failure. `hlsError` distinguishes a kernel the
/// engine genuinely rejects (surfaces as HlsError, exactly like an
/// in-process failure) from a worker-side infrastructure problem.
struct ErrorFrame {
    std::uint64_t requestId = 0;
    std::uint64_t leaseEpoch = 0;
    bool hlsError = false;
    std::string message;
};

struct HeartbeatFrame {
    std::uint64_t requestsServed = 0;
    std::uint64_t inFlightRequestId = 0;  ///< 0 when idle
};

[[nodiscard]] std::string encodeHello(const HelloFrame& hello);
[[nodiscard]] HelloFrame decodeHello(std::string_view payload);
[[nodiscard]] std::string encodeRequest(const RequestFrame& request);
[[nodiscard]] RequestFrame decodeRequest(std::string_view payload);
[[nodiscard]] std::string encodeResult(const ResultFrame& result);
[[nodiscard]] ResultFrame decodeResult(std::string_view payload);
[[nodiscard]] std::string encodeError(const ErrorFrame& error);
[[nodiscard]] ErrorFrame decodeError(std::string_view payload);
[[nodiscard]] std::string encodeHeartbeat(const HeartbeatFrame& heartbeat);
[[nodiscard]] HeartbeatFrame decodeHeartbeat(std::string_view payload);

} // namespace socgen::svc::wire
