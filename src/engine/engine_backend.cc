#include "engine/engine_backend.h"

#include "common/logging.h"
#include "engine/dense_nfa.h"
#include "engine/functional_engine.h"
#include "engine/hybrid_engine.h"

namespace pap {

Result<EngineKind>
parseEngineKind(std::string_view text)
{
    if (text == "sparse")
        return EngineKind::Sparse;
    if (text == "hybrid")
        return EngineKind::Hybrid;
    return Status::error(ErrorCode::InvalidInput, "unknown engine '",
                         std::string(text),
                         "' (expected sparse or hybrid)");
}

const char *
engineKindName(EngineKind kind)
{
    switch (kind) {
    case EngineKind::Sparse:
        return "sparse";
    case EngineKind::Hybrid:
        return "hybrid";
    }
    PAP_PANIC("invalid EngineKind ", static_cast<int>(kind));
}

EngineContext::EngineContext(const CompiledNfa &compiled, EngineKind kind)
    : cnfa(&compiled)
{
    const Result<SimdLevel> simd = resolveSimdLevel();
    if (!simd.ok()) {
        // Stay usable on the reference backend at the scalar level;
        // the caller decides whether the typed error aborts the run.
        status_ = simd.status();
        datapath_ = engineKindName(kind_);
        return;
    }
    kind_ = kind;
    simd_ = simd.value();
    if (kind_ == EngineKind::Hybrid)
        dnfa = std::make_shared<const DenseNfa>(compiled);
    datapath_ = engineKindName(kind_);
    if (kind_ == EngineKind::Hybrid && simd_ != SimdLevel::Scalar) {
        datapath_ += '+';
        datapath_ += simdLevelName(simd_);
    }
}

std::unique_ptr<EngineBackend>
EngineContext::make(bool starts_enabled, EngineScratch *scratch) const
{
    if (kind_ == EngineKind::Hybrid)
        return std::make_unique<HybridEngine>(*dnfa, starts_enabled,
                                              simd_);
    return std::make_unique<FunctionalEngine>(*cnfa, starts_enabled,
                                              scratch);
}

} // namespace pap
