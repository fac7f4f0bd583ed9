#ifndef SESEMI_SEMIRT_REQUEST_CODEC_H_
#define SESEMI_SEMIRT_REQUEST_CODEC_H_

#include <string>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/gcm.h"

namespace sesemi::semirt {

/// An inference invocation as it arrives at a serverless instance: the user
/// and model identifiers are routing metadata (not sensitive — §IV-D), the
/// input is encrypted under the user's request key K_R.
struct InferenceRequest {
  std::string user_id;
  std::string model_id;
  Bytes encrypted_input;

  Bytes Serialize() const;
  static Result<InferenceRequest> Parse(ByteSpan wire);
};

/// The user side: encrypt an input tensor under K_R, and open the result the
/// enclave sealed under the same K_R (paper §III step 6). The AAD binds
/// direction and model id, so a request ciphertext cannot be replayed as a
/// response or re-targeted at a different model.
Result<Bytes> EncryptRequestPayload(ByteSpan request_key, const std::string& model_id,
                                    ByteSpan input);
Result<Bytes> DecryptResultPayload(ByteSpan request_key, const std::string& model_id,
                                   ByteSpan sealed);

/// The enclave side: a K_R cipher context reused across a same-session
/// batch. The AES key schedule and GHASH tables are built once per batch
/// instead of once per message (they dominate small-payload GCM cost).
/// Produces/consumes exactly the wire format of the user-side helpers above.
///
/// \threadsafety Immutable after construction; safe to share across threads.
class RequestCipher {
 public:
  static Result<RequestCipher> Create(ByteSpan request_key);

  Result<Bytes> DecryptRequest(const std::string& model_id, ByteSpan sealed) const;
  Result<Bytes> EncryptResult(const std::string& model_id, ByteSpan output) const;

 private:
  explicit RequestCipher(crypto::AesGcm gcm) : gcm_(std::move(gcm)) {}
  crypto::AesGcm gcm_;
};

}  // namespace sesemi::semirt

#endif  // SESEMI_SEMIRT_REQUEST_CODEC_H_
