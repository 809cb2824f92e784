#include "common/error.h"

namespace pap {

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::Ok: return "Ok";
      case ErrorCode::InvalidInput: return "InvalidInput";
      case ErrorCode::CapacityExceeded: return "CapacityExceeded";
      case ErrorCode::VerificationFailed: return "VerificationFailed";
      case ErrorCode::HardwareFault: return "HardwareFault";
      case ErrorCode::DeadlineExceeded: return "DeadlineExceeded";
      case ErrorCode::Cancelled: return "Cancelled";
      case ErrorCode::CheckpointCorrupt: return "CheckpointCorrupt";
      case ErrorCode::ResourceExhausted: return "ResourceExhausted";
      case ErrorCode::StreamQuarantined: return "StreamQuarantined";
      case ErrorCode::LockHeld: return "LockHeld";
    }
    return "Unknown";
}

std::string
Status::toString() const
{
    if (ok())
        return "Ok";
    std::string s = errorCodeName(code_);
    if (!message_.empty()) {
        s += ": ";
        s += message_;
    }
    return s;
}

} // namespace pap
