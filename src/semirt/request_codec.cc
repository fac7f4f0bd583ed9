#include "semirt/request_codec.h"

#include "crypto/gcm.h"

namespace sesemi::semirt {

namespace {
// AAD prefixes are passed as spans alongside the model id, so the request
// hot path never materializes a "prefix + model_id" buffer per call — the
// GCM layer hashes the two parts as one logical stream.
inline ByteSpan RequestAadPrefix() { return SpanOf("sesemi-request:"); }
inline ByteSpan ResultAadPrefix() { return SpanOf("sesemi-result:"); }
}  // namespace

Bytes InferenceRequest::Serialize() const {
  ByteWriter w;
  w.Reserve(3 * sizeof(uint32_t) + user_id.size() + model_id.size() +
            encrypted_input.size());
  w.WriteLengthPrefixedString(user_id);
  w.WriteLengthPrefixedString(model_id);
  w.WriteLengthPrefixed(encrypted_input);
  return std::move(w).Take();
}

Result<InferenceRequest> InferenceRequest::Parse(ByteSpan wire) {
  ByteReader r(wire);
  InferenceRequest req;
  if (!r.ReadLengthPrefixedString(&req.user_id) ||
      !r.ReadLengthPrefixedString(&req.model_id) ||
      !r.ReadLengthPrefixed(&req.encrypted_input) || !r.done()) {
    return Status::Corruption("malformed inference request");
  }
  return req;
}

Result<Bytes> EncryptRequestPayload(ByteSpan request_key, const std::string& model_id,
                                    ByteSpan input) {
  return crypto::GcmSealParts(request_key, RequestAadPrefix(), SpanOf(model_id),
                              input);
}

Result<Bytes> DecryptResultPayload(ByteSpan request_key, const std::string& model_id,
                                   ByteSpan sealed) {
  return crypto::GcmOpenParts(request_key, ResultAadPrefix(), SpanOf(model_id),
                              sealed);
}

Result<RequestCipher> RequestCipher::Create(ByteSpan request_key) {
  SESEMI_ASSIGN_OR_RETURN(crypto::AesGcm gcm, crypto::AesGcm::Create(request_key));
  return RequestCipher(std::move(gcm));
}

Result<Bytes> RequestCipher::DecryptRequest(const std::string& model_id,
                                            ByteSpan sealed) const {
  return crypto::GcmOpenPartsWith(gcm_, RequestAadPrefix(), SpanOf(model_id),
                                  sealed);
}

Result<Bytes> RequestCipher::EncryptResult(const std::string& model_id,
                                           ByteSpan output) const {
  return crypto::GcmSealPartsWith(gcm_, ResultAadPrefix(), SpanOf(model_id),
                                  output);
}

}  // namespace sesemi::semirt
